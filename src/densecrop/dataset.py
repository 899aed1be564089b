"""Annotation ingestion, tiling, splitting, crop augmentation, and the
synthetic scene generator used for desk-scale experiments.

Every per-image scene is a row of a :class:`SceneStack`: many scenes'
annotation rows and object rows (boxes, classes and the abstract feature
payloads that stand in for pixels) concatenated with per-scene counts.
:func:`generate_synthetic_dataset` and :func:`read_scenes` return one,
:func:`write_scenes` writes one, and :func:`make_crop_children` zooms one
into the stack of its crop children in one pass. Iterating a stack yields
one-scene stacks, whose ``record`` is built on first read.
:class:`ImageRecord` (metadata and annotation rows) is the annotation
file's unit, for loading, writing and tiling; :class:`Annotation` and
:class:`Box` objects are built only where a caller reads
``record.annotations``. Records are immutable after construction, so
every transform here returns new records.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, InvariantViolation
from .geometry import (
    Box,
    box_areas,
    check_boxes,
    clip,
    group_pairs,
    intersection_matrix,
    project_rows,
)
from .manifest import write_json
from .seeding import RAW_BLOCK, StreamDecoder, rng_for, stable_int

__all__ = [
    "Annotation",
    "ImageRecord",
    "DatasetSplit",
    "UpscalePolicy",
    "SceneStack",
    "AnnotationFile",
    "load_annotations",
    "write_annotations",
    "tile_image_report",
    "split_dataset",
    "write_split",
    "read_split",
    "make_crop_children",
    "SyntheticConfig",
    "generate_synthetic_dataset",
    "write_scenes",
    "read_scenes",
]

# Fraction of an annotation's area that must survive clipping for the
# annotation to be assigned to a tile or crop child.
MIN_CLIPPED_AREA_FRACTION = 0.5


@dataclass(frozen=True, slots=True)
class Annotation:
    """One labeled box: geometry and class id."""

    box: Box
    class_id: int

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise InvariantViolation(f"negative class id {self.class_id}")


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """An image's metadata and annotations. No pixels.

    The annotations are read-only rows: (N, 4) float64 (x1, y1, x2, y2)
    ``boxes``, each a valid :class:`Box`, and (N,) int64 ``classes``, none
    negative. :attr:`annotations` builds :class:`Annotation` objects from
    them on each read. Arrays define no ``==``, so records compare by
    identity.
    """

    image_id: int | str
    width: float
    height: float
    boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    classes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise InvariantViolation(
                f"image {self.image_id!r} has size {self.width}x{self.height}, "
                "not positive and finite"
            )
        boxes = np.asarray(self.boxes, dtype=np.float64)
        classes = np.asarray(self.classes, dtype=np.int64)
        if boxes.shape != (len(classes), 4) or classes.ndim != 1:
            raise InvariantViolation(
                f"image {self.image_id!r} has annotation rows of shapes "
                f"{boxes.shape} and {classes.shape}"
            )
        check_boxes(boxes)
        if (classes < 0).any():
            raise InvariantViolation(f"negative class id {classes.min()}")
        boxes.flags.writeable = classes.flags.writeable = False
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "classes", classes)

    @property
    def size(self) -> tuple[float, float]:
        return (self.width, self.height)

    @property
    def annotations(self) -> tuple[Annotation, ...]:
        """The rows as :class:`Annotation` objects, built on each read."""
        return tuple(
            Annotation(box=Box(*box), class_id=class_id)
            for box, class_id in zip(self.boxes.tolist(), self.classes.tolist())
        )


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint labeled/unlabeled image-id sets plus the seed that made them."""

    labeled_ids: frozenset
    unlabeled_ids: frozenset
    seed: int
    fraction: float

    def __post_init__(self) -> None:
        if self.labeled_ids & self.unlabeled_ids:
            raise InvariantViolation("labeled and unlabeled ids overlap")


@dataclass(frozen=True)
class UpscalePolicy:
    """How a crop is resized before re-detection.

    ``short_edge`` mode scales the crop isotropically so its shorter edge
    reaches ``target`` pixels (never downscaling); ``factor`` mode applies
    a fixed isotropic factor.
    """

    mode: str = "short_edge"
    target: float = 512.0
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.mode not in ("short_edge", "factor"):
            raise ConfigError(f"unknown upscale mode {self.mode!r}")
        # A NaN target would silently stop upscaling, since max(1.0, nan) is
        # 1.0, and a NaN or infinite factor fails only deep inside a run.
        if not (0 < self.target < math.inf and 0 < self.factor < math.inf):
            raise ConfigError("upscale target and factor must be positive and finite")

    def output_size(self, crops: np.ndarray) -> np.ndarray:
        """(K, 2) upscaled (width, height) of (K, 4) crop rows."""
        extent = crops[:, 2:] - crops[:, :2]
        if self.mode == "factor":
            return extent * self.factor
        # np.maximum keeps the 1.0 of max(1.0, s) on a tie.
        scale = np.maximum(1.0, self.target / extent.min(axis=1))
        return extent * scale[:, None]


def _rows(blocks: list, shape: tuple, dtype=np.float64) -> np.ndarray:
    """The blocks concatenated; an empty array of ``shape`` if none."""
    return np.concatenate(blocks) if blocks else np.zeros(shape, dtype=dtype)


@dataclass(frozen=True, eq=False)
class SceneStack:
    """Many scenes as one ragged stack of rows, scene after scene: per
    scene its ``image_ids``, (S, 2) ``sizes``, the
    :func:`~densecrop.seeding.stable_int` words of its seed and image id
    (``seeds``, ``id_words``) and its ``crop`` flag (a crop child); then
    annotation rows ``boxes`` and ``classes``, ``counts[s]`` of them in
    scene ``s``, and object rows ``object_boxes``, ``object_classes`` and
    (N, K) ``object_payloads``, ``object_counts[s]`` in scene ``s``.
    Iterating yields one-scene stacks of slices of these rows. Arrays
    define no ``==``: stacks compare by identity."""

    image_ids: tuple
    sizes: np.ndarray
    seeds: np.ndarray
    id_words: np.ndarray
    crop: np.ndarray
    boxes: np.ndarray
    classes: np.ndarray
    counts: np.ndarray
    object_boxes: np.ndarray
    object_classes: np.ndarray
    object_payloads: np.ndarray
    object_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.image_ids)

    def __iter__(self):
        ann, obj = np.cumsum(self.counts).tolist(), np.cumsum(self.object_counts).tolist()
        for i, (a, b, c, d) in enumerate(zip([0, *ann], ann, [0, *obj], obj)):
            yield self._gather(self.image_ids[i : i + 1], (slice(i, i + 1), slice(a, b), slice(c, d)))

    @cached_property
    def record(self) -> ImageRecord:
        """A one-scene stack's :class:`ImageRecord`: its id, size and
        annotation rows, built on first read."""
        if len(self) != 1:
            raise InvariantViolation(f"a stack of {len(self)} scenes has no one record")
        ((width, height),) = self.sizes.tolist()
        return ImageRecord(self.image_ids[0], width, height, self.boxes, self.classes)

    @classmethod
    def of(cls, stacks) -> "SceneStack":
        """The scenes of ``stacks``, stack after stack."""
        stacks = list(stacks) or [_NO_SCENES]
        return cls(
            tuple(image_id for s in stacks for image_id in s.image_ids),
            **{name: np.concatenate([getattr(s, name) for s in stacks]) for name in _ARRAYS},
        )

    def take(self, index) -> "SceneStack":
        """The stack of scenes ``index``, in that order; repeats allowed."""
        index = np.asarray(index, dtype=np.intp).reshape(-1)
        rows = (index, group_pairs(self.counts, index)[1], group_pairs(self.object_counts, index)[1])
        return self._gather(tuple(self.image_ids[i] for i in index.tolist()), rows)

    def _gather(self, image_ids: tuple, rows: tuple) -> "SceneStack":
        """The stack of ``image_ids`` and, of each array, its rows at the
        scene, annotation or object slice or indices of ``rows``."""
        return SceneStack(image_ids, *[getattr(self, name)[rows[kind]] for name, kind in _ROWS])


_ARRAYS = tuple(f.name for f in fields(SceneStack))[1:]
# Each array and what its rows are: 0 scenes, 1 annotations, 2 objects.
_KINDS = {"boxes": 1, "classes": 1, "object_boxes": 2, "object_classes": 2, "object_payloads": 2}
_ROWS = tuple((name, _KINDS.get(name, 0)) for name in _ARRAYS)
_INTS = np.zeros(0, dtype=np.int64)
_NO_SCENES = SceneStack(
    (), np.zeros((0, 2)), _INTS, _INTS, np.zeros(0, dtype=bool), np.zeros((0, 4)), _INTS, _INTS,
    np.zeros((0, 4)), _INTS, np.zeros((0, 0)), _INTS,
)


# ---------------------------------------------------------------------------
# COCO-style annotation files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnotationFile:
    """Parsed annotation file: records, category names, and drop counters."""

    records: tuple[ImageRecord, ...]
    categories: dict[int, str]
    dropped_zero_area: int = 0


def _clip_box(
    x1: float, y1: float, x2: float, y2: float, width: float, height: float
) -> tuple[float, float, float, float] | None:
    """Clip corners to the image; None when nothing with area remains."""
    cx1 = min(max(x1, 0.0), width)
    cy1 = min(max(y1, 0.0), height)
    cx2 = min(max(x2, 0.0), width)
    cy2 = min(max(y2, 0.0), height)
    if cx1 >= cx2 or cy1 >= cy2:
        return None
    return (cx1, cy1, cx2, cy2)


def load_annotations(path: str | os.PathLike) -> AnnotationFile:
    """Read a COCO-style JSON annotation file.

    Boxes arrive as [x, y, w, h] and are converted to corner form, clipped
    to their image, and dropped (with a count) when clipping leaves no
    area. Unknown image or category references, image sizes that are not
    positive and finite, and non-finite box values are data errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read annotation file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"annotation file {path} is not valid JSON: {exc}") from exc

    for key in ("images", "annotations", "categories"):
        if key not in payload or not isinstance(payload[key], list):
            raise DataError(f"annotation file {path} is missing list field {key!r}")

    categories: dict[int, str] = {}
    for cat in payload["categories"]:
        try:
            categories[int(cat["id"])] = str(cat.get("name", cat["id"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed category entry {cat!r}") from exc

    # Each image id's (width, height, box rows, class ids), in file order.
    images: dict[int | str, tuple[float, float, list, list]] = {}
    for img in payload["images"]:
        try:
            image_id = img["id"]
            width = float(img["width"])
            height = float(img["height"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed image entry {img!r}") from exc
        if not (0 < width < math.inf and 0 < height < math.inf):
            raise DataError(f"image entry {img!r} has a size that is not positive and finite")
        if image_id in images:
            raise DataError(f"duplicate image id {image_id!r}")
        images[image_id] = (width, height, [], [])

    dropped = 0
    for idx, ann in enumerate(payload["annotations"]):
        try:
            image_id = ann["image_id"]
            category_id = int(ann["category_id"])
            x, y, w, h = (float(v) for v in ann["bbox"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed annotation entry #{idx}: {ann!r}") from exc
        if not all(map(math.isfinite, (x, y, w, h))):
            raise DataError(f"annotation #{idx} has a non-finite bbox value: {ann!r}")
        if image_id not in images:
            raise DataError(f"annotation #{idx} references unknown image id {image_id!r}")
        if category_id not in categories:
            raise DataError(f"annotation #{idx} references unknown category id {category_id}")
        width, height, rows, classes = images[image_id]
        box = _clip_box(x, y, x + w, y + h, width, height)
        if box is None:
            dropped += 1
            continue
        rows.append(box)
        classes.append(category_id)

    records = tuple(
        ImageRecord(
            image_id, width, height, np.array(rows, dtype=np.float64).reshape(-1, 4),
            np.array(classes, dtype=np.int64),
        )
        for image_id, (width, height, rows, classes) in images.items()
    )
    return AnnotationFile(records=records, categories=categories, dropped_zero_area=dropped)


def write_annotations(
    records: list[ImageRecord] | tuple[ImageRecord, ...],
    categories: dict[int, str],
    path: str | os.PathLike,
) -> None:
    """Write records as COCO-style JSON with deterministic ordering.

    Records with non-integer ids (tiles, crop children) are renumbered
    after the largest existing integer id; the original id is preserved in
    ``file_name``.
    """
    next_id = 1 + max(
        (rec.image_id for rec in records if isinstance(rec.image_id, int)), default=0
    )
    images = []
    annotations = []
    for rec in records:
        if isinstance(rec.image_id, int):
            image_id = rec.image_id
        else:
            image_id = next_id
            next_id += 1
        images.append(
            {
                "id": image_id,
                "width": rec.width,
                "height": rec.height,
                "file_name": f"{rec.image_id}.png",
            }
        )
        for (x1, y1, x2, y2), class_id in zip(rec.boxes.tolist(), rec.classes.tolist()):
            annotations.append(
                {
                    "id": len(annotations) + 1,
                    "image_id": image_id,
                    "category_id": class_id,
                    "bbox": [x1, y1, x2 - x1, y2 - y1],
                    "area": (x2 - x1) * (y2 - y1),
                    "iscrowd": 0,
                }
            )
    payload = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": cid, "name": categories[cid]} for cid in sorted(categories)],
    }
    write_json(path, payload)


# ---------------------------------------------------------------------------
# Tiling
# ---------------------------------------------------------------------------


def _tile_offsets(size: float, tile: float, stride: float) -> list[float]:
    """Sliding-window offsets; the final tile is clamped to the image edge."""
    offsets = [0.0]
    while offsets[-1] + tile < size:
        offsets.append(offsets[-1] + stride)
    return offsets[:-1] + [size - tile] if len(offsets) > 1 else offsets


def tile_image_report(
    record: ImageRecord, tile: float, stride: float
) -> tuple[list[ImageRecord], int]:
    """Cut a record into overlapping square tiles of side ``tile``, and
    count the annotations lost to straddling.

    Offsets advance by ``stride`` and the last row/column is clamped so the
    final tile ends exactly at the image edge. An annotation is assigned to
    a tile when at least half of its area lies inside, re-expressed in tile
    coordinates. It is lost when it keeps less than half of its area in
    every tile it touches; the count is reported so tiling jobs can
    surface it.
    """
    if tile <= 0:
        raise ConfigError(f"tile must be positive, got {tile}")
    if not (0 < stride <= tile):
        raise ConfigError(f"stride must be in (0, tile], got {stride}")
    tiles: list[ImageRecord] = []
    boxes = record.boxes
    least = MIN_CLIPPED_AREA_FRACTION * box_areas(boxes)
    placed = np.zeros(len(boxes), dtype=bool)
    ys = _tile_offsets(record.height, tile, stride)
    xs = _tile_offsets(record.width, tile, stride)
    for row, oy in enumerate(ys):
        for col, ox in enumerate(xs):
            tw = min(tile, record.width - ox)
            th = min(tile, record.height - oy)
            # clip keeps a -0.0 that no bound replaces, as min(max(v, 0.0), w) does.
            clipped = clip(boxes - np.array([ox, oy, ox, oy]), 0.0, np.array([tw, th, tw, th]))
            kept = (clipped[:, 0] < clipped[:, 2]) & (clipped[:, 1] < clipped[:, 3])
            kept &= box_areas(clipped) >= least
            placed |= kept
            tiles.append(
                ImageRecord(
                    image_id=f"{record.image_id}:tile{row}_{col}",
                    width=tw,
                    height=th,
                    boxes=clipped[kept],
                    classes=record.classes[kept],
                )
            )
    return tiles, int(np.count_nonzero(~placed))


# ---------------------------------------------------------------------------
# Labeled / unlabeled splits
# ---------------------------------------------------------------------------


def split_dataset(ids: list | set | tuple, fraction: float, seed: int) -> DatasetSplit:
    """Sample round(fraction * n) labeled ids uniformly without replacement."""
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(set(ids), key=lambda v: (str(type(v).__name__), str(v)))
    n_labeled = round(fraction * len(ordered))
    if n_labeled == 0:
        raise ConfigError(
            f"fraction {fraction} of {len(ordered)} images yields zero labeled images"
        )
    rng = rng_for(seed, "split")
    picked = rng.choice(len(ordered), size=n_labeled, replace=False)
    labeled = frozenset(ordered[i] for i in sorted(int(i) for i in picked))
    unlabeled = frozenset(v for v in ordered if v not in labeled)
    return DatasetSplit(labeled_ids=labeled, unlabeled_ids=unlabeled, seed=seed, fraction=fraction)


def write_split(split: DatasetSplit, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# labeled split seed={split.seed} fraction={split.fraction!r}\n")
        for image_id in sorted(split.labeled_ids, key=str):
            fh.write(f"{image_id}\n")


def read_split(path: str | os.PathLike, all_ids: list | set | tuple) -> DatasetSplit:
    """Rebuild a split from a split file against the full id universe."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read split file {path}: {exc}") from exc
    seed, fraction = 0, 0.0
    labeled: set = set()
    universe = set(all_ids)
    by_str = {str(v): v for v in universe}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                try:
                    if token.startswith("seed="):
                        seed = int(token[5:])
                    elif token.startswith("fraction="):
                        fraction = float(token[9:])
                except ValueError as exc:
                    raise DataError(f"split file {path} has a malformed header token {token!r}") from exc
            continue
        if line not in by_str:
            raise DataError(f"split file {path} lists unknown image id {line!r}")
        labeled.add(by_str[line])
    if not labeled:
        raise DataError(f"split file {path} lists no labeled images")
    return DatasetSplit(
        labeled_ids=frozenset(labeled),
        unlabeled_ids=frozenset(universe - labeled),
        seed=seed,
        fraction=fraction,
    )


# ---------------------------------------------------------------------------
# Crop-based augmentation
# ---------------------------------------------------------------------------


def make_crop_children(
    parents: SceneStack, crops: np.ndarray, counts, policy: UpscalePolicy
) -> SceneStack:
    """The zoom: the stack of crop children of a parent stack, given its
    (K, 4) (x1, y1, x2, y2) density-crop rows, parent after parent, and
    each parent's row count, as :func:`~densecrop.croplab.label_density_crops`
    returns them (else :class:`InvariantViolation`). Children come out in
    stack order, child ``k`` of parent ``i`` named ``{parent id}:crop{k}``;
    a parent that the stack repeats (:meth:`SceneStack.take`) names each
    copy's crops from ``crop0``.

    Each crop is upscaled to ``policy.output_size`` of its row. A child's
    annotation rows are its parent's rows with at least half their area
    inside the crop, projected into upscaled-crop pixels and clipped, in
    parent order. Its objects are the parent's objects clipped to the crop
    and rescaled; objects left without area drop out. Every (crop, row)
    pair of the stack is projected in one pass, and no record or
    :class:`Box` is built. A child's seed word is
    ``stable_int(parent seed) ^ stable_int(repr(crop))`` and its id word
    ``stable_int(child id)``, with ``crop`` the row as a tuple of Python
    floats.
    """
    rows = np.asarray(crops, dtype=np.float64).reshape(-1, 4)
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    if len(counts) != len(parents) or counts.sum() != len(rows) or (counts < 0).any():
        raise InvariantViolation(f"{len(rows)} crops do not split into counts {counts.tolist()}")
    owner = np.repeat(np.arange(len(parents)), counts)
    check_boxes(rows)
    out = policy.output_size(rows)

    pair_crop, pair_ann = group_pairs(parents.counts, owner)
    ann_rows, crop_rows, size = parents.boxes[pair_ann], rows[pair_crop], out[pair_crop]
    inside = intersection_matrix(ann_rows, crop_rows[:, None])[:, 0] >= (
        MIN_CLIPPED_AREA_FRACTION * box_areas(ann_rows)
    )
    mapped = clip(project_rows(ann_rows, crop_rows, size), 0.0, np.tile(size, 2))
    kept = inside & (mapped[:, 0] < mapped[:, 2]) & (mapped[:, 1] < mapped[:, 3])

    obj_crop, pair_obj = group_pairs(parents.object_counts, owner)
    crop_rows = rows[obj_crop]
    extent = crop_rows[:, 2:] - crop_rows[:, :2]
    clipped = clip(
        parents.object_boxes[pair_obj] - np.tile(crop_rows[:, :2], 2), 0.0, np.tile(extent, 2)
    )
    visible = (clipped[:, 0] < clipped[:, 2]) & (clipped[:, 1] < clipped[:, 3])
    scaled = clipped * np.tile(out[obj_crop] / extent, 2)
    objects = pair_obj[visible]

    first = np.searchsorted(owner, owner).tolist()
    names = tuple(
        f"{parents.image_ids[i]}:crop{k - first[k]}" for k, i in enumerate(owner.tolist())
    )
    # Python floats: the repr of a numpy float64 scalar differs.
    crop_words = [stable_int(repr(tuple(row))) for row in rows.tolist()]
    return SceneStack(
        image_ids=names,
        sizes=out,
        seeds=parents.seeds[owner] ^ np.array(crop_words, dtype=np.int64),
        id_words=np.array([stable_int(name) for name in names], dtype=np.int64),
        crop=np.ones(len(rows), dtype=bool),
        boxes=mapped[kept],
        classes=parents.classes[pair_ann[kept]],
        counts=np.bincount(pair_crop[kept], minlength=len(rows)),
        object_boxes=scaled[visible],
        object_classes=parents.object_classes[objects],
        object_payloads=parents.object_payloads[objects],
        object_counts=np.bincount(obj_crop[visible], minlength=len(rows)),
    )


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------


# Counts, class ids and scene indices stay below this.
_COUNT_LIMIT = 2**31


@dataclass(frozen=True)
class SyntheticConfig:
    """Distribution parameters for the synthetic aerial-like scenes.

    Each scene mixes a few clusters of small objects (the regions density
    crops should find) with scattered larger objects. Object payloads are
    noisy one-hot class vectors; they stand in for pixel appearance. No
    object side may exceed the scene's shorter side, so every object fits,
    and counts, class numbers and scene counts stay below 2**31.
    """

    num_images: int = 20
    width: float = 512.0
    height: float = 512.0
    num_classes: int = 4
    clusters_per_image: tuple[int, int] = (1, 3)
    objects_per_cluster: tuple[int, int] = (5, 10)
    cluster_spread: float = 28.0
    small_size: tuple[float, float] = (6.0, 16.0)
    scattered_per_image: tuple[int, int] = (2, 5)
    large_size: tuple[float, float] = (40.0, 90.0)
    payload_noise: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        # Every count is one 32-bit Lemire draw, and every scene index one
        # seed word, below 2**31.
        if not 0 <= self.num_images < _COUNT_LIMIT:
            raise ConfigError(f"num_images must be in [0, 2**31), got {self.num_images}")
        # A NaN or infinite size, spread or noise fails deep inside the
        # generator, or silently yields NaN payloads.
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ConfigError("scene size must be positive and finite")
        if not 1 <= self.num_classes < _COUNT_LIMIT:
            raise ConfigError(f"num_classes must be in [1, 2**31), got {self.num_classes}")
        for name in ("clusters_per_image", "objects_per_cluster", "scattered_per_image"):
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi < _COUNT_LIMIT:
                raise ConfigError(f"{name} range {lo}..{hi} is invalid")
        # An object longer than the scene's shorter side cannot fit in it.
        for name in ("small_size", "large_size"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi <= min(self.width, self.height)):
                raise ConfigError(
                    f"{name} range {lo}..{hi} is invalid for a {self.width}x{self.height} scene"
                )
        for name in ("cluster_spread", "payload_noise"):
            if not (0 <= getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


# Raw outputs that one StreamDecoder buffers for a block of scenes, about.
_BLOCK_OUTPUTS = 1 << 15


def _scene_draws(config: SyntheticConfig, first: int, count: int, outputs: int) -> list[np.ndarray]:
    """The draws of scenes ``first .. first + count - 1``, each from
    ``rng_for(seed, "scene", i)`` in the order of the loop that places its
    objects one by one, made for all the scenes at once.

    A scene draws its cluster count; per cluster a centre and an object
    count, then per object two normal offsets from the centre, a class, a
    width, a height and ``num_classes`` normals of payload noise; then its
    scattered object count, and per scattered object a uniform centre and
    the same class, size and noise draws. Returns the per-scene object
    counts and the object rows in scene order: centre x and y, class,
    width, height and (N, num_classes) payload noise.
    """
    k = config.num_classes
    streams = StreamDecoder((config.seed, "scene"), np.arange(first, first + count)[:, None], outputs)
    scenes = np.arange(count)
    width, height, margin = config.width, config.height, 3.0 * config.cluster_spread
    counts = [(lo, hi + 1) for lo, hi in (config.clusters_per_image, config.objects_per_cluster)]
    offsets = [("normal", config.cluster_spread, None)] * 2
    placing = [("integers", 0, k), *[("uniform", *config.small_size)] * 2, ("normal", config.payload_noise, k)]
    (n_clusters,) = streams.draw(scenes, 1, [("integers", *counts[0])])
    runs = []
    for j in range(int(n_clusters.max())):
        rows = scenes[n_clusters > j]
        ccx, ccy, sizes = streams.draw(rows, 1, [
            ("uniform", min(margin, width / 2), max(width - margin, width / 2)),
            ("uniform", min(margin, height / 2), max(height - margin, height / 2)),
            ("integers", *counts[1]),
        ])
        dx, dy, *placed = streams.draw(rows, sizes, offsets + placing)
        runs.append((np.repeat(rows, sizes), np.repeat(ccx, sizes) + dx, np.repeat(ccy, sizes) + dy, *placed))
    lo, hi = config.scattered_per_image
    (n_scattered,) = streams.draw(scenes, 1, [("integers", lo, hi + 1)])
    placing[1:3] = [("uniform", *config.large_size)] * 2
    centres = [("uniform", 0.0, width), ("uniform", 0.0, height)]
    runs.append((np.repeat(scenes, n_scattered), *streams.draw(scenes, n_scattered, centres + placing)))
    # Each scene's clusters' objects and then its scattered ones, in
    # scene order.
    owner = np.concatenate([run[0] for run in runs])
    order = np.argsort(owner, kind="stable")
    return [np.bincount(owner, minlength=count), *(np.concatenate(c)[order] for c in list(zip(*runs))[1:])]


def generate_synthetic_dataset(config: SyntheticConfig) -> SceneStack:
    """Generate scenes with clustered small objects and scattered large ones.

    Ground truth is exact by construction and the whole dataset is a pure
    function of the config, so regeneration from the same seed is
    bit-identical. Scene ``i`` draws from ``rng_for(seed, "scene", i)``:
    its cluster count; per cluster a centre (two uniforms) and an object
    count, then per object two normal offsets from the centre, a class, a
    width and a height, and ``num_classes`` normals of payload noise; then
    its scattered objects, each with a uniform centre. A
    :class:`~densecrop.seeding.StreamDecoder` reads those draws from the
    generators' raw streams into arrays, a block of scenes at a time.
    Each centre is then shifted so its box fits the scene, and each
    payload is the class's one-hot vector plus its noise, over all objects
    at once.

    Returns one stack: scene ``i`` is image id ``i + 1`` with seed word
    ``stable_int(seed) ^ stable_int(i * 2654435761)``, and its ground
    truth is its objects: annotation and object rows share arrays, all of
    them read-only.
    """
    if not config.num_images:
        return SceneStack.of([])
    # Outputs of the scene with the most objects if every draw took one.
    k = config.num_classes
    (_, c_hi), (_, o_hi), (_, s_hi) = (
        config.clusters_per_image, config.objects_per_cluster, config.scattered_per_image
    )
    outputs = min(2 + c_hi * (3 + o_hi * (5 + k)) + s_hi * (5 + k), RAW_BLOCK)
    per_block = max(1, _BLOCK_OUTPUTS // outputs)
    blocks = [
        _scene_draws(config, first, min(per_block, config.num_images - first), outputs)
        for first in range(0, config.num_images, per_block)
    ]
    counts, ox, oy, classes, w, h, noise = (np.concatenate(column) for column in zip(*blocks))
    del blocks
    # Shift the centre so the box fits inside the scene; no side of a box
    # is longer than the scene's shorter side.
    cx = clip(ox, w / 2.0, config.width - w / 2.0)
    cy = clip(oy, h / 2.0, config.height - h / 2.0)
    boxes = np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1)
    # The one-hot vector plus the noise: the noise, 0.0 + scale * z, is
    # never -0.0, so adding 0.0 leaves it as it is.
    payloads = noise
    payloads[np.arange(len(classes)), classes] += 1.0
    # Read-only, as annotation and object rows share arrays.
    for rows in (boxes, classes, counts, payloads):
        rows.flags.writeable = False
    n = config.num_images
    scenes = np.arange(n, dtype=np.int64)
    return SceneStack(
        image_ids=tuple(range(1, n + 1)),
        sizes=np.tile([config.width, config.height], (n, 1)).astype(np.float64),
        seeds=(scenes * 2654435761 & 0xFFFFFFFF) ^ stable_int(config.seed),
        id_words=scenes + 1,
        crop=np.zeros(n, dtype=bool),
        boxes=boxes,
        classes=classes,
        counts=counts,
        object_boxes=boxes,
        object_classes=classes,
        object_payloads=payloads,
        object_counts=counts,
    )


# ---------------------------------------------------------------------------
# Scene (de)serialization
# ---------------------------------------------------------------------------


def write_scenes(scenes: SceneStack, path: str | os.PathLike) -> None:
    """Persist each scene's size, seed word and objects next to the COCO
    annotations, keyed by its image id's text."""
    objects = [
        {"box": box, "class_id": class_id, "payload": payload}
        for box, class_id, payload in zip(
            scenes.object_boxes.tolist(),
            scenes.object_classes.tolist(),
            scenes.object_payloads.tolist(),
        )
    ]
    ends = np.cumsum(scenes.object_counts).tolist()
    payload = {
        "scenes": {
            str(image_id): {
                "width": width, "height": height, "seed": seed, "objects": objects[start:end]
            }
            for image_id, (width, height), seed, start, end in zip(
                scenes.image_ids, scenes.sizes.tolist(), scenes.seeds.tolist(), [0, *ends], ends
            )
        }
    }
    write_json(path, payload)


def _number_rows(rows: list, width: int) -> np.ndarray:
    """(len(rows), width) float64 array of lists of JSON numbers; ValueError
    unless each list holds ``width`` of them."""
    return np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), width)


def read_scenes(path: str | os.PathLike, records: list[ImageRecord]) -> SceneStack:
    """The stack of ``records``, in their order, with the scenes of a scene
    file joined on by image id: each record's id, size and annotation rows,
    and its scene's objects and seed word ``stable_int(seed)``. Payloads
    keep the columns that every scene with objects has.

    Keys other than the ones :func:`write_scenes` writes are ignored, such
    as the ``clusters`` of files from earlier versions. A scene whose boxes
    are not valid 4-number boxes, whose size differs from its record's (as
    one that is not positive and finite does), or whose objects' payloads
    differ in length, is a :class:`DataError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read scene file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"scene file {path} is not valid JSON: {exc}") from exc
    scenes = payload.get("scenes")
    if not isinstance(scenes, dict):
        raise DataError(f"scene file {path} is missing the 'scenes' mapping")
    seeds, boxes, classes, payloads = [], [], [], []
    for record in records:
        raw = scenes.get(str(record.image_id))
        if raw is None:
            raise DataError(f"scene file {path} has no scene for image {record.image_id!r}")
        try:
            objects = raw["objects"]
            width, height = float(raw["width"]), float(raw["height"])
            seeds.append(stable_int(int(raw["seed"])))
            boxes.append(_number_rows([o["box"] for o in objects], 4))
            check_boxes(boxes[-1])
            classes.append(np.array([int(o["class_id"]) for o in objects], dtype=np.int64))
            payloads.append(_number_rows(
                [o["payload"] for o in objects], len(objects[0]["payload"]) if objects else 0
            ))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed scene entry for image {record.image_id!r}") from exc
        # The record's size is positive and finite, so a scene's that is not
        # differs from it.
        if (width, height) != record.size:
            raise DataError(
                f"scene for image {record.image_id!r} is {width}x{height}, "
                f"its record {record.width}x{record.height}"
            )
    k = min((p.shape[1] for p in payloads if len(p)), default=0)
    return SceneStack(
        image_ids=tuple(r.image_id for r in records),
        sizes=np.array([r.size for r in records], dtype=np.float64).reshape(-1, 2),
        seeds=np.array(seeds, dtype=np.int64),
        id_words=np.array([stable_int(r.image_id) for r in records], dtype=np.int64),
        crop=np.zeros(len(records), dtype=bool),
        boxes=_rows([r.boxes for r in records], (0, 4)),
        classes=_rows([r.classes for r in records], 0, np.int64),
        counts=np.array([len(r.classes) for r in records], dtype=np.int64),
        object_boxes=_rows(boxes, (0, 4)),
        object_classes=_rows(classes, 0, np.int64),
        object_payloads=_rows([p[:, :k] for p in payloads if len(p)], (0, k)),
        object_counts=np.array([len(b) for b in boxes], dtype=np.int64),
    )
