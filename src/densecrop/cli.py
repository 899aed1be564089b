"""Single executable covering the whole workflow.

Subcommands: ``dataset gen|tile|split``, ``crops label``, ``train``,
``infer``, ``eval``, ``errors``, ``report``, and ``replay``. Every run
writes a manifest with the resolved parameters, the root seed, and input
and output digests; ``replay`` re-executes a manifest and checks that it
reproduces the primary outputs byte for byte.

The argument parser, the flag and config-file overrides, the manifest's
input digests and replay's params check all derive from one
:class:`Command` per subcommand in :data:`COMMANDS`.

Exit codes: 0 success, 2 config error, 3 data error, 4 invariant
violation. ``infer`` exits 3 when any image failed, after writing all of
its outputs; ``timings.tsv`` names the error of each failed image.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Callable

import numpy as np

from . import config as cfg
from . import croplab, dataset, detect, infer, metrics, teacher
from .errors import ConfigError, DataError, DensecropError
from .manifest import (
    RunManifest,
    read_manifest,
    verify_inputs,
    verify_outputs,
    write_json,
    write_manifest,
)

CROP_CATEGORY_NAME = "density_crop"


def _out_paths(params: dict, *names: str) -> list[str]:
    """Paths of the named files in the run's output directory, created here."""
    os.makedirs(params["out"], exist_ok=True)
    return [os.path.join(params["out"], name) for name in names]


def _base_categories(categories: dict[int, str]) -> dict[int, str]:
    return {cid: name for cid, name in categories.items() if name != CROP_CATEGORY_NAME}


def _load_samples(params: dict):
    loaded = dataset.load_annotations(params["annotations"])
    samples = dataset.read_scenes(params["scenes"], list(loaded.records))
    # The toy detector reads num_base_classes payload values per object.
    classes = params.get("detector", {}).get("num_base_classes", 0)
    for sample in samples:
        if len(sample.scene.object_payloads) and sample.scene.object_payloads.shape[1] < classes:
            raise DataError(
                f"objects of image {sample.record.image_id!r} have fewer payload values "
                f"than the detector's {classes} base classes"
            )
    return loaded, samples


def _finish(
    command: str, params: dict, seed: int, start: float, outputs, aux=(), **timings
) -> RunManifest:
    """Write the manifest of a run that started at ``start``: the digests of
    the inputs its spec names, of its primary ``outputs`` and auxiliary
    ``aux`` files, and its ``timings``."""
    manifest = RunManifest(command=command, params=params, seed=seed)
    manifest.timings["wall_s"] = time.perf_counter() - start
    for key in COMMANDS[command].inputs:
        paths = params.get(key) or []
        for path in [paths] if isinstance(paths, str) else paths:
            manifest.add_input(path)
    for path in outputs:
        manifest.add_output(path)
    for path in aux:
        manifest.add_output(path, primary=False)
    manifest.timings.update(timings)
    write_manifest(manifest, os.path.join(params["out"], "manifest.json"))
    return manifest


# ---------------------------------------------------------------------------
# Subcommand implementations (params dicts are manifest/replay currency)
# ---------------------------------------------------------------------------


def cmd_dataset_gen(params: dict) -> RunManifest:
    ann_path, scene_path = _out_paths(params, "annotations.json", "scenes.json")
    synth = cfg.from_dict("synthetic", params["synthetic"])
    samples = dataset.generate_synthetic_dataset(synth)
    categories = {i: f"class_{i}" for i in range(synth.num_classes)}
    start = time.perf_counter()
    dataset.write_annotations([s.record for s in samples], categories, ann_path)
    dataset.write_scenes(samples, scene_path)
    print(f"wrote {len(samples)} synthetic images to {params['out']} (seed {synth.seed})")
    return _finish("dataset-gen", params, synth.seed, start, [ann_path, scene_path])


def cmd_dataset_tile(params: dict) -> RunManifest:
    (ann_path,) = _out_paths(params, "annotations.json")
    loaded = dataset.load_annotations(params["annotations"])
    start = time.perf_counter()
    reports = [
        dataset.tile_image_report(record, params["tile"], params["stride"])
        for record in loaded.records
    ]
    tiles = [tile for record_tiles, _ in reports for tile in record_tiles]
    lost = sum(record_lost for _, record_lost in reports)
    dataset.write_annotations(tiles, loaded.categories, ann_path)
    print(
        f"tiled {len(loaded.records)} images into {len(tiles)} tiles "
        f"({lost} annotations lost to straddling)"
    )
    return _finish(
        "dataset-tile", params, 0, start, [ann_path], annotations_lost_to_straddling=lost
    )


def cmd_dataset_split(params: dict) -> RunManifest:
    (split_path,) = _out_paths(params, "split.txt")
    loaded = dataset.load_annotations(params["annotations"])
    split = dataset.split_dataset(
        [r.image_id for r in loaded.records], params["fraction"], params["seed"]
    )
    start = time.perf_counter()
    dataset.write_split(split, split_path)
    print(
        f"split {len(loaded.records)} images: {len(split.labeled_ids)} labeled, "
        f"{len(split.unlabeled_ids)} unlabeled"
    )
    return _finish("dataset-split", params, params["seed"], start, [split_path])


def cmd_crops_label(params: dict) -> RunManifest:
    (ann_path,) = _out_paths(params, "annotations.json")
    loaded = dataset.load_annotations(params["annotations"])
    crop_params = cfg.from_dict("crops", params["crops"])
    base = _base_categories(loaded.categories)
    crop_class = next(
        (cid for cid, name in loaded.categories.items() if name == CROP_CATEGORY_NAME),
        max(loaded.categories, default=-1) + 1,
    )
    start = time.perf_counter()
    records = loaded.records
    kept = [np.isin(r.classes, list(base)) for r in records]
    crops, counts = croplab.label_density_crops(
        np.concatenate([r.boxes[k] for r, k in zip(records, kept)] or [np.zeros((0, 4))]),
        [r.size for r in records], crop_params, [np.count_nonzero(k) for k in kept],
    )
    out_records = [
        dataclasses.replace(
            r, boxes=np.concatenate([r.boxes[k], rows]),
            classes=np.concatenate([r.classes[k], np.full(len(rows), crop_class)]),
        )
        for r, k, rows in zip(records, kept, np.split(crops, np.cumsum(counts)[:-1]))
    ]
    categories = {**base, crop_class: CROP_CATEGORY_NAME}
    dataset.write_annotations(out_records, categories, ann_path)
    print(f"labeled {len(crops)} density crops across {len(records)} images")
    return _finish("crops-label", params, 0, start, [ann_path])


def cmd_train(params: dict) -> RunManifest:
    ckpt_path, report_path = _out_paths(params, "checkpoint.txt", "run_report.tsv")
    loaded, samples = _load_samples(params)
    trainer_config = cfg.from_dict("trainer", params["trainer"])
    backend = detect.ToyDetector(cfg.from_dict("detector", params["detector"]))
    split = dataset.read_split(params["split"], [s.record.image_id for s in samples])
    by_id = {s.record.image_id: s for s in samples}

    start = time.perf_counter()
    state = teacher.train(
        trainer_config, by_id, split, backend,
        checkpoint_dir=params["out"], resume_from=params.get("resume"),
    )
    wall = time.perf_counter() - start
    teacher.write_checkpoint(
        ckpt_path, state.student, state.teacher, state.iteration, backend.num_base_classes
    )
    teacher.write_run_report(state.history, report_path)
    if state.history:
        print(
            f"trained {state.iteration} iterations in {wall:.1f}s "
            f"(final loss {state.history[-1].loss_total:.4f})"
        )
    else:
        print(
            f"no iteration ran in {wall:.1f}s (at iteration {state.iteration}, "
            f"max_iters {trainer_config.max_iters})"
        )
    return _finish(
        "train", params, trainer_config.seed, start, [ckpt_path, report_path],
        iterations=state.iteration,
    )


def cmd_infer(params: dict) -> RunManifest:
    det_path, timing_path = _out_paths(params, "detections.tsv", "timings.tsv")
    loaded, samples = _load_samples(params)
    inference_config = cfg.from_dict("inference", params["inference"])

    if params["backend"] == "oracle":
        num_base = len(_base_categories(loaded.categories))
        noise = cfg.from_dict("oracle", params["oracle"])
        backend: detect.DetectorBackend = detect.OracleBackend(num_base, noise)
        weights = None
    else:
        header, student, teacher_weights = teacher.read_checkpoint(params["checkpoint"])
        backend = detect.ToyDetector(cfg.from_dict("detector", params["detector"]))
        if backend.layout.total != student.layout.total:
            raise DataError(f"checkpoint layout {student.layout} does not match detector config")
        weights = student if params["use_student"] else teacher_weights

    start = time.perf_counter()
    results = infer.run_inference(samples, backend, weights, inference_config)
    detect.write_detections([(r.image_id, r.boxes, r.classes, r.scores) for r in results], det_path)
    errors = [res for res in results if res.error]
    with open(timing_path, "w", encoding="utf-8") as fh:
        fh.write("image_id\tseconds\tdetections\terror\n")
        for res in results:
            fh.write(f"{res.image_id}\t{res.seconds:.6f}\t{len(res.scores)}\t{res.error or ''}\n")
    total_seconds = sum(res.seconds for res in results)
    fps = len(results) / total_seconds if total_seconds > 0 else float("inf")
    print(
        f"inferred {len(results)} images ({sum(len(res.scores) for res in results)} "
        f"detections, {fps:.1f} FPS, {len(errors)} errors)"
    )
    manifest = _finish(
        "infer", params, params["seed"], start, [det_path], [timing_path],
        seconds_per_image=total_seconds / len(results) if results else 0.0,
        fps=fps,
        image_errors=len(errors),
    )
    if errors:
        raise DataError(
            f"inference failed on {len(errors)} of {len(results)} images; "
            f"see the error column of {timing_path}"
        )
    return manifest


def _eval_inputs(params: dict):
    loaded = dataset.load_annotations(params["annotations"])
    excluded = set(params["exclude_category_ids"] or [])
    gts = {
        r.image_id: [a for a in r.annotations if a.class_id not in excluded] for r in loaded.records
    }
    # A detection file holds image ids as text, so they resolve by their text.
    by_text = {str(image_id): image_id for image_id in gts}
    dets = [
        (by_text.get(str(image_id), image_id), det)
        for image_id, det in detect.read_detections(params["detections"])
        if det.class_id not in excluded
    ]
    return gts, dets


def cmd_eval(params: dict) -> RunManifest:
    json_path, text_path, series_path = _out_paths(
        params, "report.json", "report.txt", "per_class.tsv"
    )
    gts, dets = _eval_inputs(params)
    start = time.perf_counter()
    report = metrics.evaluate_ap(gts, dets)
    metrics.write_eval_report(report, json_path, text_path)
    with open(series_path, "w", encoding="utf-8") as fh:
        fh.write("class_id\tap\n")
        for class_id, value in sorted(report.per_class.items()):
            fh.write(f"{class_id}\t{'' if value is None else repr(value)}\n")
    shown = {k: (f"{100 * v:.2f}" if v is not None else "--") for k, v in report.metrics().items()}
    print("  ".join(f"{k}={v}" for k, v in shown.items()))
    return _finish("eval", params, 0, start, [json_path], [text_path, series_path])


def cmd_errors(params: dict) -> RunManifest:
    (errors_path,) = _out_paths(params, "errors.json")
    gts, dets = _eval_inputs(params)
    start = time.perf_counter()
    profile = metrics.profile_errors(gts, dets, fg_iou=params["fg_iou"], bg_iou=params["bg_iou"])
    write_json(errors_path, dataclasses.asdict(profile))
    print("  ".join(f"{k}={v}" for k, v in profile.counts.items()))
    return _finish("errors", params, 0, start, [errors_path])


def cmd_report(params: dict) -> RunManifest:
    json_path, text_path = _out_paths(params, "comparison.json", "comparison.txt")
    names = params["names"] or [os.path.splitext(os.path.basename(p))[0] for p in params["reports"]]
    if len(names) != len(params["reports"]):
        raise ConfigError("--names must match the number of reports")
    reports = [(name, metrics.read_eval_report(p)) for name, p in zip(names, params["reports"])]
    start = time.perf_counter()
    table = metrics.compare_runs(reports)
    write_json(json_path, table)
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(metrics.format_comparison(table))
    print(metrics.format_comparison(table), end="")
    return _finish("report", params, 0, start, [json_path], [text_path])


class Flag:
    """One option, named after its key unless ``option`` is given: the
    top-level params key it sets, or the ``(config section, key)`` it
    overrides, typed by that key's config parser. Other keywords go to
    argparse. A section flag's ``required`` and ``default`` apply once the
    config file has been read: the flag or the file must give the value,
    or it falls back to the default."""

    def __init__(self, target, option=None, required=False, default=None, **kwargs):
        self.section, self.key = target if isinstance(target, tuple) else (None, target)
        self.option = option or "--" + self.key.replace("_", "-")
        self.required, self.default = required, default
        if self.section is None:
            kwargs.update(required=required, default=default)
        else:
            kwargs["default"] = None
            if "action" not in kwargs:
                kwargs["type"] = cfg.PARSERS[self.section][self.key]
        self.kwargs = kwargs


def _section_flags(section: str, *keys: str) -> tuple[Flag, ...]:
    return tuple(Flag((section, key)) for key in keys)


@dataclasses.dataclass(frozen=True)
class Command:
    """A subcommand: its executor, flags, and what its params hold.

    ``sections`` are the config sections it reads. ``seed`` offers
    ``--seed`` and reads ``[run] seed``; every dataclass section with a
    seed field takes it, and ``seed_key`` records it as ``params["seed"]``
    too. ``inputs`` name the params keys holding input files. A key (or
    section) in ``when`` is kept only where its predicate holds for the
    params. Replay drops the ``legacy`` keys of older manifests. ``hook``
    fills in what the table cannot express.
    """

    run: Callable[[dict], RunManifest]
    help: str
    flags: tuple[Flag, ...]
    sections: tuple[str, ...] = ()
    seed: bool = False
    seed_key: bool = False
    inputs: tuple[str, ...] = ()
    when: dict = dataclasses.field(default_factory=dict)
    legacy: tuple[str, ...] = ()
    hook: Callable[[dict, dict], None] | None = None


def _train_hook(params: dict, sections: dict) -> None:
    loaded = dataset.load_annotations(params["annotations"])
    sections["detector"]["num_base_classes"] = len(_base_categories(loaded.categories))


def _infer_hook(params: dict, sections: dict) -> None:
    if params["backend"] != "toy":
        return
    if not params["checkpoint"]:
        raise ConfigError("--checkpoint is required with the toy backend")
    header, _, _ = teacher.read_checkpoint(params["checkpoint"])
    sections["detector"]["num_base_classes"] = header["num_base_classes"]


_OUT, _ANNOTATIONS, _SCENES, _DETECTIONS = (
    Flag(key, required=True) for key in ("out", "annotations", "scenes", "detections")
)
_EXCLUDE = Flag("exclude_category_ids", "--exclude-category-id", type=int, action="append")
_CROP_FLAGS = _section_flags("crops", *cfg.PARSERS["crops"])
_TOY, _ORACLE = (lambda p: p.get("backend") == "toy"), (lambda p: p.get("backend") == "oracle")

COMMANDS: dict[str, Command] = {
    "dataset-gen": Command(
        cmd_dataset_gen, "generate a synthetic dataset",
        (_OUT, *_section_flags("synthetic", "num_images", "num_classes")),
        sections=("synthetic",), seed=True,
    ),
    "dataset-tile": Command(
        cmd_dataset_tile, "sliding-window tiling of an annotation file",
        (_ANNOTATIONS, _OUT, Flag(("tile", "tile"), required=True), Flag(("tile", "stride"))),
        sections=("tile",), inputs=("annotations",),
        # the stride defaults to the tile size
        hook=lambda params, s: s["tile"].setdefault("stride", s["tile"]["tile"]),
    ),
    "dataset-split": Command(
        cmd_dataset_split, "labeled/unlabeled split",
        (_ANNOTATIONS, _OUT, Flag(("split", "fraction"), required=True)),
        sections=("split",), seed=True, seed_key=True, inputs=("annotations",),
    ),
    "crops-label": Command(
        cmd_crops_label, "add density-crop annotations", (_ANNOTATIONS, _OUT, *_CROP_FLAGS),
        sections=("crops",), inputs=("annotations",),
    ),
    "train": Command(
        cmd_train, "mean-teacher training on synthetic scenes",
        (
            _ANNOTATIONS, _SCENES, Flag("split", required=True), _OUT,
            *_section_flags("trainer", "burn_in_iters", "max_iters", "crop_start_iter"),
            *_section_flags("trainer", "learning_rate", "tau", "alpha", "data_ratio"),
            *_section_flags("trainer", "labeled_batch", "checkpoint_interval"),
            Flag(("trainer", "lambda_unsup"), "--lambda"),
            Flag(("trainer", "crops_on_labeled"), action="store_true"),
            Flag("resume", help="checkpoint to restore weights and iteration from"),
            *_CROP_FLAGS,
        ),
        sections=("crops", "upscale", "trainer", "detector"), seed=True,
        inputs=("annotations", "scenes", "split", "resume"),
        when={"resume": lambda params: params.get("resume") is not None},
        hook=_train_hook,
    ),
    "infer": Command(
        cmd_infer, "single- or multi-stage inference",
        (
            _ANNOTATIONS, _SCENES, _OUT,
            Flag("backend", choices=["toy", "oracle"], default="toy"),
            Flag("checkpoint"),
            Flag("use_student", action="store_true", default=False),
            Flag(("inference", "crop_mode"), choices=["predicted", "relabeled"]),
            *_section_flags("inference", "crop_score_threshold", "fusion_iou"),
            Flag(("inference", "max_crops_per_image"), "--max-crops"),
            Flag(("inference", "multistage"), "--single-stage", action="store_const", const=False,
                 help="skip crops; NMS-filtered stage one"),
            *_CROP_FLAGS,
        ),
        sections=("crops", "upscale", "inference", "oracle", "detector"),
        seed=True, seed_key=True, inputs=("annotations", "scenes", "checkpoint"),
        when={"checkpoint": _TOY, "use_student": _TOY, "detector": _TOY, "oracle": _ORACLE},
        # the worker count of the removed inference thread pool
        legacy=("workers",), hook=_infer_hook,
    ),
    "eval": Command(
        cmd_eval, "COCO-style AP evaluation", (_ANNOTATIONS, _DETECTIONS, _OUT, _EXCLUDE),
        inputs=("annotations", "detections"),
    ),
    "errors": Command(
        cmd_errors, "error-type profiling",
        (
            _ANNOTATIONS, _DETECTIONS, _OUT, _EXCLUDE,
            Flag(("errors", "fg_iou"), default=0.5),
            Flag(("errors", "bg_iou"), default=0.1),
        ),
        sections=("errors",), inputs=("annotations", "detections"),
    ),
    "report": Command(
        cmd_report, "compare evaluation reports",
        (Flag("reports", nargs="+", required=True), Flag("names", nargs="+"), _OUT),
        inputs=("reports",),
    ),
}

_GROUP_HELP = {"dataset": "generate, tile, or split datasets", "crops": "density-crop operations"}


def cmd_replay(manifest_path: str, out: str) -> RunManifest:
    """Re-run a recorded manifest into ``out`` and check that it reproduces
    every primary output (``manifest.verify_outputs``). Top-level params
    keys the command does not write, or misses, are a DataError."""
    recorded = read_manifest(manifest_path)
    if recorded.command not in COMMANDS:
        raise DataError(f"manifest records unknown command {recorded.command!r}")
    spec = COMMANDS[recorded.command]
    params = {k: v for k, v in recorded.params.items() if k not in spec.legacy}
    keys = {f.key for f in spec.flags if f.section is None} | cfg.param_keys(spec.sections)
    if spec.seed_key:
        keys.add("seed")
    expected = {k for k in keys if k not in spec.when or spec.when[k](params)}
    unknown, missing = sorted(set(params) - expected), sorted(expected - set(params))
    if unknown:
        raise DataError(f"manifest {recorded.command} parameters have unknown keys {unknown}")
    if missing:
        raise DataError(f"manifest {recorded.command} parameters are missing keys {missing}")
    verify_inputs(recorded)
    params["out"] = out
    replayed = spec.run(params)
    verify_outputs(recorded, replayed)
    return replayed


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecrop", description="Density-crop guided semi-supervised detection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict = {}
    for name, spec in COMMANDS.items():
        group, _, leaf = name.partition("-")
        if leaf and group not in groups:
            groups[group] = sub.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
                dest=f"{group}_command", required=True
            )
        cmd = (groups[group] if leaf else sub).add_parser(leaf or name, help=spec.help)
        cmd.set_defaults(spec=name)
        if spec.sections:
            cmd.add_argument("--config", help="INI config file; flags override its values")
        if spec.seed:
            cmd.add_argument("--seed", type=int, help="root seed for every random choice")
        for flag in spec.flags:
            cmd.add_argument(flag.option, dest=flag.key, **flag.kwargs)

    replay = sub.add_parser("replay", help="re-run a recorded manifest")
    replay.add_argument("--manifest", required=True)
    replay.add_argument("--out", required=True)
    return parser


def resolve(args: argparse.Namespace) -> tuple[Command, dict]:
    """The command's spec and the params its flags and config file give."""
    spec = COMMANDS[args.spec]
    raw = cfg.load_config_file(getattr(args, "config", None))
    params: dict = {}
    sections = {name: dict(raw.get(name, {})) for name in spec.sections}
    for flag in spec.flags:
        value = getattr(args, flag.key)
        if flag.section is None:
            params[flag.key] = value
            continue
        values = sections[flag.section]
        if value is not None:
            values[flag.key] = value
        elif flag.default is not None:
            values.setdefault(flag.key, flag.default)
        elif flag.required and flag.key not in values:
            raise ConfigError(f"{flag.option} or [{flag.section}] {flag.key} is required")
    for key, keep in spec.when.items():
        if not keep(params):
            params.pop(key, None)
            sections.pop(key, None)
    seed = None
    if spec.seed:
        seed = args.seed if args.seed is not None else raw.get("run", {}).get("seed", 0)
        if spec.seed_key:
            params["seed"] = seed
    if spec.hook:
        spec.hook(params, sections)
    params.update(cfg.build_params(sections, seed))
    return spec, params


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            cmd_replay(args.manifest, args.out)
        else:
            spec, params = resolve(args)
            spec.run(params)
    except DensecropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
