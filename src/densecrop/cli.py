"""Single executable covering the whole workflow.

Subcommands: ``dataset gen|tile|split``, ``crops label``, ``train``,
``infer``, ``eval``, ``errors``, ``report``, and ``replay``. Every run
writes a manifest with the resolved parameters, the root seed, and input
and output digests; ``replay`` re-executes a manifest and checks that it
reproduces the primary outputs byte for byte.

Exit codes: 0 success, 2 config error, 3 data error, 4 invariant
violation. ``infer`` exits 3 when any image failed, after writing all of
its outputs; ``timings.tsv`` names the error of each failed image.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import config as cfg
from . import croplab, dataset, detect, infer, metrics, teacher
from .errors import ConfigError, DataError, DensecropError
from .manifest import RunManifest, read_manifest, verify_inputs, verify_outputs, write_manifest

CROP_CATEGORY_NAME = "density_crop"


def _ensure_out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_manifest_for(out_dir: str, manifest: RunManifest) -> None:
    write_manifest(manifest, os.path.join(out_dir, "manifest.json"))


def _base_categories(categories: dict[int, str]) -> dict[int, str]:
    return {cid: name for cid, name in categories.items() if name != CROP_CATEGORY_NAME}


def _load_samples(annotations_path: str, scenes_path: str):
    loaded = dataset.load_annotations(annotations_path)
    samples = dataset.read_scenes(scenes_path, list(loaded.records))
    return loaded, samples


# ---------------------------------------------------------------------------
# Subcommand implementations (params dicts are manifest/replay currency)
# ---------------------------------------------------------------------------


def cmd_dataset_gen(params: dict) -> RunManifest:
    out_dir = _ensure_out_dir(params["out"])
    synth = cfg.synthetic_from_dict(params["synthetic"])
    samples = dataset.generate_synthetic_dataset(synth)
    categories = {i: f"class_{i}" for i in range(synth.num_classes)}
    ann_path = os.path.join(out_dir, "annotations.json")
    scene_path = os.path.join(out_dir, "scenes.json")
    start = time.perf_counter()
    dataset.write_annotations([s.record for s in samples], categories, ann_path)
    dataset.write_scenes(samples, scene_path)
    manifest = RunManifest(command="dataset-gen", params=params, seed=synth.seed)
    manifest.add_output(ann_path)
    manifest.add_output(scene_path)
    manifest.timings["wall_s"] = time.perf_counter() - start
    _write_manifest_for(out_dir, manifest)
    print(f"wrote {len(samples)} synthetic images to {out_dir} (seed {synth.seed})")
    return manifest


def cmd_dataset_tile(params: dict) -> RunManifest:
    out_dir = _ensure_out_dir(params["out"])
    loaded = dataset.load_annotations(params["annotations"])
    start = time.perf_counter()
    tiles: list[dataset.ImageRecord] = []
    lost = 0
    for record in loaded.records:
        record_tiles, record_lost = dataset.tile_image_report(
            record, params["tile"], params["stride"]
        )
        tiles.extend(record_tiles)
        lost += record_lost
    ann_path = os.path.join(out_dir, "annotations.json")
    dataset.write_annotations(tiles, loaded.categories, ann_path)
    manifest = RunManifest(command="dataset-tile", params=params, seed=0)
    manifest.add_input(params["annotations"])
    manifest.add_output(ann_path)
    manifest.timings["wall_s"] = time.perf_counter() - start
    manifest.timings["annotations_lost_to_straddling"] = lost
    _write_manifest_for(out_dir, manifest)
    print(
        f"tiled {len(loaded.records)} images into {len(tiles)} tiles "
        f"({lost} annotations lost to straddling)"
    )
    return manifest


def cmd_dataset_split(params: dict) -> RunManifest:
    out_dir = _ensure_out_dir(params["out"])
    loaded = dataset.load_annotations(params["annotations"])
    split = dataset.split_dataset(
        [r.image_id for r in loaded.records], params["fraction"], params["seed"]
    )
    split_path = os.path.join(out_dir, "split.txt")
    start = time.perf_counter()
    dataset.write_split(split, split_path)
    manifest = RunManifest(command="dataset-split", params=params, seed=params["seed"])
    manifest.add_input(params["annotations"])
    manifest.add_output(split_path)
    manifest.timings["wall_s"] = time.perf_counter() - start
    _write_manifest_for(out_dir, manifest)
    print(
        f"split {len(loaded.records)} images: {len(split.labeled_ids)} labeled, "
        f"{len(split.unlabeled_ids)} unlabeled"
    )
    return manifest


def cmd_crops_label(params: dict) -> RunManifest:
    out_dir = _ensure_out_dir(params["out"])
    loaded = dataset.load_annotations(params["annotations"])
    crop_params = cfg.crop_params_from_dict(params["crops"])
    base = _base_categories(loaded.categories)
    crop_class = next(
        (cid for cid, name in loaded.categories.items() if name == CROP_CATEGORY_NAME),
        max(loaded.categories, default=-1) + 1,
    )
    start = time.perf_counter()
    out_records: list[dataset.ImageRecord] = []
    total_crops = 0
    for record in loaded.records:
        boxes = [a.box for a in record.annotations if a.class_id in base]
        crops = croplab.label_density_crops(boxes, record.size, crop_params)
        total_crops += len(crops)
        crop_anns = tuple(
            dataset.Annotation(box=c, class_id=crop_class) for c in crops
        )
        kept = tuple(a for a in record.annotations if a.class_id in base)
        out_records.append(
            dataset.ImageRecord(
                image_id=record.image_id,
                width=record.width,
                height=record.height,
                annotations=kept + crop_anns,
                provenance=record.provenance,
            )
        )
    categories = dict(base)
    categories[crop_class] = CROP_CATEGORY_NAME
    ann_path = os.path.join(out_dir, "annotations.json")
    dataset.write_annotations(out_records, categories, ann_path)
    manifest = RunManifest(command="crops-label", params=params, seed=0)
    manifest.add_input(params["annotations"])
    manifest.add_output(ann_path)
    manifest.timings["wall_s"] = time.perf_counter() - start
    _write_manifest_for(out_dir, manifest)
    print(f"labeled {total_crops} density crops across {len(out_records)} images")
    return manifest


def cmd_train(params: dict) -> RunManifest:
    out_dir = _ensure_out_dir(params["out"])
    loaded, samples = _load_samples(params["annotations"], params["scenes"])
    trainer_config = cfg.trainer_from_dict(params["trainer"])
    detector_config = cfg.detector_from_dict(params["detector"])
    backend = detect.ToyDetector(detector_config)
    split = dataset.read_split(params["split"], [s.record.image_id for s in samples])
    by_id = {s.record.image_id: s for s in samples}

    start = time.perf_counter()
    state = teacher.train(
        trainer_config,
        by_id,
        split,
        backend,
        checkpoint_dir=out_dir,
        resume_from=params.get("resume"),
    )
    wall = time.perf_counter() - start

    ckpt_path = os.path.join(out_dir, "checkpoint.txt")
    report_path = os.path.join(out_dir, "run_report.tsv")
    teacher.write_checkpoint(
        ckpt_path, state.student, state.teacher, state.iteration, backend.num_base_classes
    )
    teacher.write_run_report(state.history, report_path)
    manifest = RunManifest(
        command="train", params=params, seed=trainer_config.seed
    )
    for key in ("annotations", "scenes", "split"):
        manifest.add_input(params[key])
    if params.get("resume"):
        manifest.add_input(params["resume"])
    manifest.add_output(ckpt_path)
    manifest.add_output(report_path)
    manifest.timings["wall_s"] = wall
    manifest.timings["iterations"] = state.iteration
    _write_manifest_for(out_dir, manifest)
    print(
        f"trained {state.iteration} iterations in {wall:.1f}s "
        f"(final loss {state.history[-1].loss_total:.4f})"
    )
    return manifest


def cmd_infer(params: dict) -> RunManifest:
    out_dir = _ensure_out_dir(params["out"])
    loaded, samples = _load_samples(params["annotations"], params["scenes"])
    inference_config = cfg.inference_from_dict(params["inference"])
    seed = params.get("seed", 0)

    manifest = RunManifest(command="infer", params=params, seed=seed)
    manifest.add_input(params["annotations"])
    manifest.add_input(params["scenes"])

    if params["backend"] == "oracle":
        noise = cfg.oracle_from_dict(params["oracle"])
        num_base = len(_base_categories(loaded.categories))
        backend: detect.DetectorBackend = detect.OracleBackend(num_base, noise)
        weights = None
    else:
        header, student, teacher_weights = teacher.read_checkpoint(params["checkpoint"])
        manifest.add_input(params["checkpoint"])
        detector_config = cfg.detector_from_dict(params["detector"])
        backend = detect.ToyDetector(detector_config)
        if backend.layout.total != student.layout.total:
            raise DataError(
                f"checkpoint layout {student.layout} does not match detector config"
            )
        weights = student if params.get("use_student") else teacher_weights

    start = time.perf_counter()
    results = infer.run_inference(samples, backend, weights, inference_config, seed=seed)
    wall = time.perf_counter() - start

    det_path = os.path.join(out_dir, "detections.tsv")
    timing_path = os.path.join(out_dir, "timings.tsv")
    flat = [
        (res.image_id, det) for res in results for det in res.detections
    ]
    detect.write_detections(flat, det_path)
    errors = [res for res in results if res.error]
    with open(timing_path, "w", encoding="utf-8") as fh:
        fh.write("image_id\tseconds\tdetections\terror\n")
        for res in results:
            fh.write(
                f"{res.image_id}\t{res.seconds:.6f}\t{len(res.detections)}\t{res.error or ''}\n"
            )
    total_seconds = sum(res.seconds for res in results)
    fps = len(results) / total_seconds if total_seconds > 0 else float("inf")
    manifest.add_output(det_path)
    manifest.add_output(timing_path, primary=False)
    manifest.timings["wall_s"] = wall
    manifest.timings["seconds_per_image"] = total_seconds / len(results) if results else 0.0
    manifest.timings["fps"] = fps
    manifest.timings["image_errors"] = len(errors)
    _write_manifest_for(out_dir, manifest)
    print(
        f"inferred {len(results)} images ({len(flat)} detections, {fps:.1f} FPS, "
        f"{len(errors)} errors)"
    )
    if errors:
        raise DataError(
            f"inference failed on {len(errors)} of {len(results)} images; "
            f"see the error column of {timing_path}"
        )
    return manifest


def _eval_inputs(params: dict):
    loaded = dataset.load_annotations(params["annotations"])
    excluded = set(params.get("exclude_category_ids") or [])
    gts = {
        r.image_id: [a for a in r.annotations if a.class_id not in excluded]
        for r in loaded.records
    }
    dets = [
        (image_id, det)
        for image_id, det in detect.read_detections(params["detections"])
        if det.class_id not in excluded
    ]
    return gts, dets


def cmd_eval(params: dict) -> RunManifest:
    out_dir = _ensure_out_dir(params["out"])
    gts, dets = _eval_inputs(params)
    start = time.perf_counter()
    report = metrics.evaluate_ap(gts, dets)
    json_path = os.path.join(out_dir, "report.json")
    text_path = os.path.join(out_dir, "report.txt")
    series_path = os.path.join(out_dir, "per_class.tsv")
    metrics.write_eval_report(report, json_path, text_path)
    with open(series_path, "w", encoding="utf-8") as fh:
        fh.write("class_id\tap\n")
        for class_id, value in sorted(report.per_class.items()):
            fh.write(f"{class_id}\t{'' if value is None else repr(value)}\n")
    manifest = RunManifest(command="eval", params=params, seed=0)
    manifest.add_input(params["annotations"])
    manifest.add_input(params["detections"])
    manifest.add_output(json_path)
    manifest.add_output(text_path, primary=False)
    manifest.add_output(series_path, primary=False)
    manifest.timings["wall_s"] = time.perf_counter() - start
    _write_manifest_for(out_dir, manifest)
    shown = {k: (f"{100 * v:.2f}" if v is not None else "--") for k, v in report.metrics().items()}
    print("  ".join(f"{k}={v}" for k, v in shown.items()))
    return manifest


def cmd_errors(params: dict) -> RunManifest:
    out_dir = _ensure_out_dir(params["out"])
    gts, dets = _eval_inputs(params)
    start = time.perf_counter()
    profile = metrics.profile_errors(
        gts, dets, fg_iou=params["fg_iou"], bg_iou=params["bg_iou"]
    )
    errors_path = os.path.join(out_dir, "errors.json")
    with open(errors_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "counts": profile.counts,
                "true_positives": profile.true_positives,
                "false_positives": profile.false_positives,
            },
            fh,
            sort_keys=True,
            separators=(",", ": "),
            indent=1,
        )
        fh.write("\n")
    manifest = RunManifest(command="errors", params=params, seed=0)
    manifest.add_input(params["annotations"])
    manifest.add_input(params["detections"])
    manifest.add_output(errors_path)
    manifest.timings["wall_s"] = time.perf_counter() - start
    _write_manifest_for(out_dir, manifest)
    print("  ".join(f"{k}={v}" for k, v in profile.counts.items()))
    return manifest


def cmd_report(params: dict) -> RunManifest:
    out_dir = _ensure_out_dir(params["out"])
    names = params.get("names") or [
        os.path.splitext(os.path.basename(p))[0] for p in params["reports"]
    ]
    if len(names) != len(params["reports"]):
        raise ConfigError("--names must match the number of reports")
    reports = [
        (name, metrics.read_eval_report(path))
        for name, path in zip(names, params["reports"])
    ]
    start = time.perf_counter()
    table = metrics.compare_runs(reports)
    json_path = os.path.join(out_dir, "comparison.json")
    text_path = os.path.join(out_dir, "comparison.txt")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, sort_keys=True, separators=(",", ": "), indent=1)
        fh.write("\n")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(metrics.format_comparison(table))
    manifest = RunManifest(command="report", params=params, seed=0)
    for path in params["reports"]:
        manifest.add_input(path)
    manifest.add_output(json_path)
    manifest.add_output(text_path, primary=False)
    manifest.timings["wall_s"] = time.perf_counter() - start
    _write_manifest_for(out_dir, manifest)
    print(metrics.format_comparison(table), end="")
    return manifest


_COMMANDS = {
    "dataset-gen": cmd_dataset_gen,
    "dataset-tile": cmd_dataset_tile,
    "dataset-split": cmd_dataset_split,
    "crops-label": cmd_crops_label,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "errors": cmd_errors,
    "report": cmd_report,
}


def cmd_replay(manifest_path: str, out: str) -> RunManifest:
    """Re-run a recorded manifest into ``out`` and check that it reproduces
    every primary output (``manifest.verify_outputs``)."""
    recorded = read_manifest(manifest_path)
    if recorded.command not in _COMMANDS:
        raise DataError(f"manifest records unknown command {recorded.command!r}")
    verify_inputs(recorded)
    params = dict(recorded.params)
    params["out"] = out
    replayed = _COMMANDS[recorded.command](params)
    verify_outputs(recorded, replayed)
    return replayed


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_config_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file; flags override its values")
    parser.add_argument("--seed", type=int, help="root seed for every random choice")


def _add_crop_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--merge-steps", type=int, dest="merge_steps")
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--theta", type=float)
    parser.add_argument("--pi", type=float)
    parser.add_argument("--min-cluster", type=int, dest="min_cluster")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecrop",
        description="Density-crop guided semi-supervised detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="generate, tile, or split datasets")
    ds_sub = ds.add_subparsers(dest="dataset_command", required=True)

    gen = ds_sub.add_parser("gen", help="generate a synthetic dataset")
    _add_config_seed(gen)
    gen.add_argument("--out", required=True)
    gen.add_argument("--num-images", type=int, dest="num_images")
    gen.add_argument("--num-classes", type=int, dest="num_classes")

    tile = ds_sub.add_parser("tile", help="sliding-window tiling of an annotation file")
    _add_config_seed(tile)
    tile.add_argument("--annotations", required=True)
    tile.add_argument("--out", required=True)
    tile.add_argument("--tile", type=float)
    tile.add_argument("--stride", type=float)

    split = ds_sub.add_parser("split", help="labeled/unlabeled split")
    _add_config_seed(split)
    split.add_argument("--annotations", required=True)
    split.add_argument("--out", required=True)
    split.add_argument("--fraction", type=float)

    crops = sub.add_parser("crops", help="density-crop operations")
    crops_sub = crops.add_subparsers(dest="crops_command", required=True)
    label = crops_sub.add_parser("label", help="add density-crop annotations")
    _add_config_seed(label)
    label.add_argument("--annotations", required=True)
    label.add_argument("--out", required=True)
    _add_crop_flags(label)

    train = sub.add_parser("train", help="mean-teacher training on synthetic scenes")
    _add_config_seed(train)
    train.add_argument("--annotations", required=True)
    train.add_argument("--scenes", required=True)
    train.add_argument("--split", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--burn-in-iters", type=int, dest="burn_in_iters")
    train.add_argument("--max-iters", type=int, dest="max_iters")
    train.add_argument("--crop-start-iter", type=int, dest="crop_start_iter")
    train.add_argument("--learning-rate", type=float, dest="learning_rate")
    train.add_argument("--lambda", type=float, dest="lambda_unsup")
    train.add_argument("--tau", type=float)
    train.add_argument("--alpha", type=float)
    train.add_argument("--data-ratio", type=float, dest="data_ratio")
    train.add_argument("--labeled-batch", type=int, dest="labeled_batch")
    train.add_argument(
        "--crops-on-labeled", action="store_true", default=None, dest="crops_on_labeled"
    )
    train.add_argument("--checkpoint-interval", type=int, dest="checkpoint_interval")
    train.add_argument("--resume", help="checkpoint to restore weights and iteration from")
    _add_crop_flags(train)

    inf = sub.add_parser("infer", help="single- or multi-stage inference")
    _add_config_seed(inf)
    inf.add_argument("--annotations", required=True)
    inf.add_argument("--scenes", required=True)
    inf.add_argument("--out", required=True)
    inf.add_argument("--backend", choices=["toy", "oracle"], default="toy")
    inf.add_argument("--checkpoint")
    inf.add_argument("--use-student", action="store_true")
    inf.add_argument("--crop-mode", choices=["predicted", "relabeled"], dest="crop_mode")
    inf.add_argument("--crop-score-threshold", type=float, dest="crop_score_threshold")
    inf.add_argument("--max-crops", type=int, dest="max_crops_per_image")
    inf.add_argument("--fusion-iou", type=float, dest="fusion_iou")
    inf.add_argument(
        "--single-stage", action="store_true", help="skip crops; NMS-filtered stage one"
    )
    _add_crop_flags(inf)

    ev = sub.add_parser("eval", help="COCO-style AP evaluation")
    _add_config_seed(ev)
    ev.add_argument("--annotations", required=True)
    ev.add_argument("--detections", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument(
        "--exclude-category-id", type=int, action="append", dest="exclude_category_ids"
    )

    er = sub.add_parser("errors", help="error-type profiling")
    _add_config_seed(er)
    er.add_argument("--annotations", required=True)
    er.add_argument("--detections", required=True)
    er.add_argument("--out", required=True)
    er.add_argument("--fg-iou", type=float, dest="fg_iou")
    er.add_argument("--bg-iou", type=float, dest="bg_iou")
    er.add_argument(
        "--exclude-category-id", type=int, action="append", dest="exclude_category_ids"
    )

    rep = sub.add_parser("report", help="compare evaluation reports")
    _add_config_seed(rep)
    rep.add_argument("--reports", nargs="+", required=True)
    rep.add_argument("--names", nargs="+")
    rep.add_argument("--out", required=True)

    replay = sub.add_parser("replay", help="re-run a recorded manifest")
    replay.add_argument("--manifest", required=True)
    replay.add_argument("--out", required=True)

    return parser


def _root_seed(args, raw: dict) -> int:
    return cfg.simple_section(raw, "run", seed=getattr(args, "seed", None)).get("seed", 0)


def _crop_overrides(args) -> dict:
    return {
        "merge_steps": args.merge_steps,
        "sigma": args.sigma,
        "theta": args.theta,
        "pi": args.pi,
        "min_cluster": args.min_cluster,
    }


def _dispatch(args) -> RunManifest:
    raw = cfg.load_config_file(getattr(args, "config", None))
    command = args.command
    if command == "dataset":
        command = f"dataset-{args.dataset_command}"
    elif command == "crops":
        command = f"crops-{args.crops_command}"

    if command == "replay":
        return cmd_replay(args.manifest, args.out)

    seed = _root_seed(args, raw)

    if command == "dataset-gen":
        synth = cfg.build_synthetic(
            raw, num_images=args.num_images, num_classes=args.num_classes, seed=seed
        )
        return cmd_dataset_gen({"out": args.out, "synthetic": cfg.params_dict(synth)})

    if command == "dataset-tile":
        values = cfg.simple_section(raw, "tile", tile=args.tile, stride=args.stride)
        if "tile" not in values:
            raise ConfigError("tile size is required (--tile or [tile] tile)")
        values.setdefault("stride", values["tile"])
        return cmd_dataset_tile(
            {
                "out": args.out,
                "annotations": args.annotations,
                "tile": values["tile"],
                "stride": values["stride"],
            }
        )

    if command == "dataset-split":
        values = cfg.simple_section(raw, "split", fraction=args.fraction)
        if "fraction" not in values:
            raise ConfigError("fraction is required (--fraction or [split] fraction)")
        return cmd_dataset_split(
            {
                "out": args.out,
                "annotations": args.annotations,
                "fraction": values["fraction"],
                "seed": seed,
            }
        )

    if command == "crops-label":
        crop_params = cfg.build_crop_params(raw, **_crop_overrides(args))
        return cmd_crops_label(
            {
                "out": args.out,
                "annotations": args.annotations,
                "crops": cfg.params_dict(crop_params),
            }
        )

    if command == "train":
        crop_params = cfg.build_crop_params(raw, **_crop_overrides(args))
        upscale = cfg.build_upscale(raw)
        trainer_config = cfg.build_trainer(
            raw,
            crop_params,
            upscale,
            burn_in_iters=args.burn_in_iters,
            max_iters=args.max_iters,
            crop_start_iter=args.crop_start_iter,
            learning_rate=args.learning_rate,
            lambda_unsup=args.lambda_unsup,
            tau=args.tau,
            alpha=args.alpha,
            data_ratio=args.data_ratio,
            labeled_batch=args.labeled_batch,
            crops_on_labeled=args.crops_on_labeled,
            checkpoint_interval=args.checkpoint_interval,
            seed=seed,
        )
        loaded = dataset.load_annotations(args.annotations)
        num_base = len(_base_categories(loaded.categories))
        detector_config = cfg.build_detector(raw, num_base, crop_params, seed=seed)
        params = {
            "out": args.out,
            "annotations": args.annotations,
            "scenes": args.scenes,
            "split": args.split,
            "trainer": cfg.params_dict(trainer_config),
            "detector": cfg.params_dict(detector_config),
        }
        if args.resume:
            params["resume"] = args.resume
        return cmd_train(params)

    if command == "infer":
        crop_params = cfg.build_crop_params(raw, **_crop_overrides(args))
        upscale = cfg.build_upscale(raw)
        inference_config = cfg.build_inference(
            raw,
            crop_params,
            upscale,
            crop_mode=args.crop_mode,
            crop_score_threshold=args.crop_score_threshold,
            max_crops_per_image=args.max_crops_per_image,
            fusion_iou=args.fusion_iou,
            multistage=False if args.single_stage else None,
        )
        params: dict = {
            "out": args.out,
            "annotations": args.annotations,
            "scenes": args.scenes,
            "backend": args.backend,
            "inference": cfg.params_dict(inference_config),
            "seed": seed,
        }
        if args.backend == "oracle":
            noise = cfg.build_oracle(raw, seed=seed)
            params["oracle"] = cfg.params_dict(noise)
        else:
            if not args.checkpoint:
                raise ConfigError("--checkpoint is required with the toy backend")
            header, _, _ = teacher.read_checkpoint(args.checkpoint)
            detector_config = cfg.build_detector(
                raw, int(header["num_base_classes"]), crop_params, seed=seed
            )
            params["checkpoint"] = args.checkpoint
            params["use_student"] = bool(args.use_student)
            params["detector"] = cfg.params_dict(detector_config)
        return cmd_infer(params)

    if command == "eval":
        return cmd_eval(
            {
                "out": args.out,
                "annotations": args.annotations,
                "detections": args.detections,
                "exclude_category_ids": args.exclude_category_ids,
            }
        )

    if command == "errors":
        values = cfg.simple_section(raw, "errors", fg_iou=args.fg_iou, bg_iou=args.bg_iou)
        return cmd_errors(
            {
                "out": args.out,
                "annotations": args.annotations,
                "detections": args.detections,
                "fg_iou": values.get("fg_iou", 0.5),
                "bg_iou": values.get("bg_iou", 0.1),
                "exclude_category_ids": args.exclude_category_ids,
            }
        )

    if command == "report":
        return cmd_report({"out": args.out, "reports": args.reports, "names": args.names})

    raise ConfigError(f"unknown command {command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
    except DensecropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
