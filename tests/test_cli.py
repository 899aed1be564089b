"""End-to-end CLI workflow, exit codes, config precedence, and replay."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from densecrop import config
from densecrop import dataset, detect, geometry, infer
from densecrop.cli import main
from densecrop.dataset import load_annotations
from densecrop.errors import InvariantViolation
from densecrop.manifest import read_manifest, write_manifest


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset + split shared by the workflow tests."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    assert run(
        [
            "dataset", "gen", "--out", str(data),
            "--num-images", "10", "--num-classes", "3", "--seed", "5",
        ]
    ) == 0
    split_dir = root / "split"
    assert run(
        [
            "dataset", "split", "--annotations", str(data / "annotations.json"),
            "--out", str(split_dir), "--fraction", "0.2", "--seed", "5",
        ]
    ) == 0
    return {
        "root": root,
        "annotations": data / "annotations.json",
        "scenes": data / "scenes.json",
        "split": split_dir / "split.txt",
    }


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace["root"] / "train"
    code = run(
        [
            "train",
            "--annotations", str(workspace["annotations"]),
            "--scenes", str(workspace["scenes"]),
            "--split", str(workspace["split"]),
            "--out", str(out),
            "--burn-in-iters", "30",
            "--max-iters", "60",
            "--crop-start-iter", "40",
            "--learning-rate", "0.01",
            "--crops-on-labeled",
            "--seed", "5",
        ]
    )
    assert code == 0
    return out


class TestDatasetCommands:
    def test_gen_outputs_and_manifest(self, workspace):
        loaded = load_annotations(workspace["annotations"])
        assert len(loaded.records) == 10
        manifest = read_manifest(workspace["annotations"].parent / "manifest.json")
        assert manifest.command == "dataset-gen"
        assert manifest.seed == 5
        assert len(manifest.primary_outputs()) == 2

    def test_tile(self, workspace, tmp_path):
        out = tmp_path / "tiles"
        assert run(
            [
                "dataset", "tile", "--annotations", str(workspace["annotations"]),
                "--out", str(out), "--tile", "256", "--stride", "256",
            ]
        ) == 0
        tiled = load_annotations(out / "annotations.json")
        assert len(tiled.records) == 40  # 512/256 -> 2x2 tiles per image

    def test_split_file_header(self, workspace):
        text = workspace["split"].read_text()
        assert text.startswith("# labeled split seed=5")
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 2


class TestCropsLabel:
    def test_three_box_fixture(self, tmp_path):
        payload = {
            "images": [{"id": 1, "width": 500, "height": 500, "file_name": "a.png"}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 0, "bbox": [0, 0, 20, 20]},
                {"id": 2, "image_id": 1, "category_id": 0, "bbox": [25, 0, 20, 20]},
                {"id": 3, "image_id": 1, "category_id": 0, "bbox": [200, 200, 20, 20]},
            ],
            "categories": [{"id": 0, "name": "class_0"}],
        }
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(payload))
        out = tmp_path / "crops"
        assert run(
            [
                "crops", "label", "--annotations", str(ann_path), "--out", str(out),
                "--merge-steps", "1", "--sigma", "5", "--theta", "0.05",
                "--pi", "0.5", "--min-cluster", "2",
            ]
        ) == 0
        labeled = load_annotations(out / "annotations.json")
        assert labeled.categories[1] == "density_crop"
        crop_anns = [a for a in labeled.records[0].annotations if a.class_id == 1]
        assert len(crop_anns) == 1
        assert crop_anns[0].box.as_tuple() == (0.0, 0.0, 50.0, 25.0)


class TestTrainInferEvalErrors:
    def test_train_outputs(self, trained):
        assert (trained / "checkpoint.txt").exists()
        report = (trained / "run_report.tsv").read_text().splitlines()
        assert report[0].split("\t")[0] == "iteration"
        assert len(report) == 61  # header + 60 iterations

    def test_infer_eval_errors_chain(self, workspace, trained, tmp_path):
        infer_out = workspace["root"] / "infer"
        assert run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--checkpoint", str(trained / "checkpoint.txt"),
                "--out", str(infer_out),
                "--seed", "5",
            ]
        ) == 0
        assert (infer_out / "detections.tsv").exists()
        assert (infer_out / "timings.tsv").exists()

        eval_out = workspace["root"] / "eval"
        assert run(
            [
                "eval",
                "--annotations", str(workspace["annotations"]),
                "--detections", str(infer_out / "detections.tsv"),
                "--out", str(eval_out),
            ]
        ) == 0
        report = json.loads((eval_out / "report.json").read_text())
        assert "AP" in report["metrics"]

        err_out = workspace["root"] / "errors"
        assert run(
            [
                "errors",
                "--annotations", str(workspace["annotations"]),
                "--detections", str(infer_out / "detections.tsv"),
                "--out", str(err_out),
            ]
        ) == 0
        tallies = json.loads((err_out / "errors.json").read_text())
        fp_sum = sum(tallies["counts"][k] for k in ("Cls", "Loc", "Both", "Dupe", "Bkg"))
        assert fp_sum == tallies["false_positives"]

    def test_eval_empty_detections_clean_zero(self, workspace, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# image_id\tclass_id\tscore\tx1\ty1\tx2\ty2\n")
        out = tmp_path / "eval_empty"
        assert run(
            [
                "eval",
                "--annotations", str(workspace["annotations"]),
                "--detections", str(empty),
                "--out", str(out),
            ]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["AP"] == 0.0

    def test_eval_and_errors_keep_string_image_ids(self, tmp_path):
        """A COCO file with string ids ("007", "12") next to an int id (3):
        its detections round-trip through the detection file and still
        find their images."""
        image_ids = ["007", "12", 3]
        annotations = tmp_path / "annotations.json"
        annotations.write_text(
            json.dumps(
                {
                    "images": [{"id": i, "width": 100, "height": 100} for i in image_ids],
                    "annotations": [
                        {"id": k, "image_id": i, "category_id": 0, "bbox": [10, 20, 30, 40]}
                        for k, i in enumerate(image_ids)
                    ],
                    "categories": [{"id": 0, "name": "thing"}],
                }
            )
        )
        detections = tmp_path / "detections.tsv"
        one = (np.array([[10.0, 20.0, 40.0, 60.0]]), np.array([0]), np.array([0.9]))
        detect.write_detections([(i, *one) for i in image_ids], detections)
        common = ["--annotations", str(annotations), "--detections", str(detections)]
        assert run(["eval", *common, "--out", str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["metrics"]["AP"] == 1.0
        assert run(["errors", *common, "--out", str(tmp_path / "errors")]) == 0
        tallies = json.loads((tmp_path / "errors" / "errors.json").read_text())
        assert (tallies["true_positives"], tallies["false_positives"]) == (3, 0)

    def test_errors_rejects_fg_iou_above_one(self, workspace, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# image_id\tclass_id\tscore\tx1\ty1\tx2\ty2\n")
        out = tmp_path / "errors"
        argv = [
            "errors",
            "--annotations", str(workspace["annotations"]),
            "--detections", str(empty),
            "--out", str(out),
            "--fg-iou", "1.5",
        ]
        assert run(argv) != 0
        assert not (out / "errors.json").exists()

    def test_oracle_backend_infer(self, workspace, tmp_path):
        out = tmp_path / "oracle_infer"
        assert run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--backend", "oracle",
                "--single-stage",
                "--out", str(out),
                "--seed", "5",
            ]
        ) == 0
        assert (out / "detections.tsv").exists()

    def test_infer_builds_no_detection(self, workspace, tmp_path, monkeypatch):
        # Inference keeps its results as arrays and the command writes them
        # as they are. Crop children stay rows of their stack, so a zooming
        # pass builds no Box, Annotation or Detection, and no record for its
        # children, and nothing is built after it.
        crops = tmp_path / "crops"
        assert run(
            ["crops", "label", "--annotations", str(workspace["annotations"]), "--out", str(crops)]
        ) == 0
        built, during, children = [], [], []
        run_inference, make_crop_children = infer.run_inference, infer.make_crop_children
        classes = (
            geometry.Detection, geometry.Box, dataset.Annotation, dataset.ImageRecord,
        )

        def counting(init):
            def count(obj, *args, **kwargs):
                built.append(obj)
                init(obj, *args, **kwargs)

            return count

        def counted_children(*args, **kwargs):
            out = make_crop_children(*args, **kwargs)
            children.append(len(out))
            return out

        def counted_run(*args, **kwargs):
            for cls in classes:
                monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
            results = run_inference(*args, **kwargs)
            during.extend(built)
            built.clear()
            return results

        monkeypatch.setattr(infer, "make_crop_children", counted_children)
        monkeypatch.setattr(infer, "run_inference", counted_run)
        out = tmp_path / "infer"
        assert run(
            [
                "infer", "--annotations", str(crops / "annotations.json"),
                "--scenes", str(workspace["scenes"]), "--backend", "oracle", "--out", str(out),
            ]
        ) == 0
        rows = (out / "detections.tsv").read_text().splitlines()[1:]
        timings = (out / "timings.tsv").read_text().splitlines()[1:]
        assert len(rows) == sum(int(line.split("\t")[2]) for line in timings) > 0
        assert sum(children) > 0 and during == []
        assert built == []

    def test_infer_seed_sets_the_oracle_seed(self, workspace, tmp_path):
        # The root seed reaches the oracle as [oracle] seed, so a noisy
        # oracle detects differently at another --seed.
        cfg = tmp_path / "noisy.ini"
        cfg.write_text("[oracle]\njitter_std = 2.0\nfp_rate = 1.0\n")
        tables = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert run(
                [
                    "infer", "--config", str(cfg),
                    "--annotations", str(workspace["annotations"]),
                    "--scenes", str(workspace["scenes"]),
                    "--backend", "oracle",
                    "--out", str(out),
                    "--seed", seed,
                ]
            ) == 0
            assert read_manifest(out / "manifest.json").params["oracle"]["seed"] == int(seed)
            tables.append((out / "detections.tsv").read_text())
        assert tables[0].count("\n") > 1 and tables[0] != tables[1]

    def test_report_comparison(self, workspace, trained, tmp_path):
        eval_out = workspace["root"] / "eval"
        out = tmp_path / "cmp"
        assert run(
            [
                "report",
                "--reports", str(eval_out / "report.json"), str(eval_out / "report.json"),
                "--names", "a", "b",
                "--out", str(out),
            ]
        ) == 0
        table = json.loads((out / "comparison.json").read_text())
        assert table["runs"] == ["a", "b"]

    def test_resume_at_or_past_max_iters_runs_nothing(self, workspace, trained, tmp_path, capsys):
        out = tmp_path / "resumed"
        code = run(
            [
                "train",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--split", str(workspace["split"]),
                "--out", str(out),
                "--burn-in-iters", "5",
                "--max-iters", "10",
                "--crop-start-iter", "8",
                "--learning-rate", "0.01",
                "--resume", str(trained / "checkpoint.txt"),
                "--seed", "5",
            ]
        )
        assert code == 0
        assert "no iteration ran" in capsys.readouterr().out
        manifest = read_manifest(out / "manifest.json")
        assert manifest.timings["iterations"] == 60
        assert (out / "run_report.tsv").read_text().splitlines() == [
            (trained / "run_report.tsv").read_text().splitlines()[0]
        ]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def timings_sha256(path) -> str:
    """The digest of a timings.tsv without its seconds column."""
    rows = [line.split("\t") for line in Path(path).read_text().splitlines()]
    return hashlib.sha256("\n".join("\t".join(r[:1] + r[2:]) for r in rows).encode()).hexdigest()


class TestPinnedChain:
    """The primary outputs of a CLI chain over ``workspace``, pinned by
    digest. The toy run at the default crop threshold selects no crop;
    the relabeled toy run and both oracle runs zoom."""

    def test_crops_label(self, workspace, tmp_path):
        out = tmp_path / "crops"
        assert run(
            ["crops", "label", "--annotations", str(workspace["annotations"]), "--out", str(out)]
        ) == 0
        assert sha256(out / "annotations.json") == (
            "b366334bcea570fe94ea711f8abe8284f386b4e43cbf798ac4c0fd7af98f6283"
        )

    def test_train(self, trained):
        assert sha256(trained / "checkpoint.txt") == (
            "5f3e01071d0ab8873e53137cebc260564dfba6ea1c27e49219e24a341e86c082"
        )
        assert sha256(trained / "run_report.tsv") == (
            "f721129654b3df6dbf5769ef0b4c1a137cc6ad7a9b497d0855aff7eca510a15d"
        )

    def test_toy_infer_eval_errors(self, workspace, trained, tmp_path):
        ann = str(workspace["annotations"])
        common = [
            "--annotations", ann, "--scenes", str(workspace["scenes"]),
            "--checkpoint", str(trained / "checkpoint.txt"),
            "--crop-score-threshold", "0.25", "--seed", "5",
        ]
        predicted, relabeled = tmp_path / "predicted", tmp_path / "relabeled"
        assert run(["infer", *common, "--out", str(predicted)]) == 0
        assert run(["infer", *common, "--crop-mode", "relabeled", "--out", str(relabeled)]) == 0
        assert sha256(predicted / "detections.tsv") == (
            "0f1072a27d9f82efccc04f082a73fb44c3ac58f321d30ee82bb4a9ba92a83b63"
        )
        assert sha256(relabeled / "detections.tsv") == (
            "a9113cf511b02928d085c29f86cf0c4f193e8d4fe145c78e40649305f20e2baa"
        )
        # timings.tsv but for its seconds column, which is wall time
        assert timings_sha256(predicted / "timings.tsv") == (
            "5bdd2a11845ce2c9c5b065b5a68de512d57bcb351ab834a7608bc5bd3f1f3d46"
        )
        assert timings_sha256(relabeled / "timings.tsv") == (
            "38b67cb1b20b8665d99efebd516c13486d376c2326d9198cb05da3317cd4125e"
        )
        dets = str(predicted / "detections.tsv")
        assert run(["eval", "--annotations", ann, "--detections", dets,
                    "--out", str(tmp_path / "eval")]) == 0
        assert run(["errors", "--annotations", ann, "--detections", dets,
                    "--out", str(tmp_path / "errors")]) == 0
        assert sha256(tmp_path / "eval" / "report.json") == (
            "e4e85def86598445bb4d591fca1bcca94ce90c90a048644b5914726951eda33f"
        )
        assert sha256(tmp_path / "eval" / "report.txt") == (
            "591b611a4a66724b5cfdc30f6344ea5cf116faed1915860d2c922902fb251fac"
        )
        assert sha256(tmp_path / "eval" / "per_class.tsv") == (
            "077b62e788c591c95be2ab988880588856a341aa952344e1760356f46b7f449c"
        )
        assert sha256(tmp_path / "errors" / "errors.json") == (
            "0e9a3cf127ba7fd176275ed41049203ac74f5cc8e9628f95f8238e75d66937eb"
        )

    def test_oracle_infer_on_labeled_crops(self, workspace, tmp_path):
        crops = tmp_path / "crops"
        assert run(
            ["crops", "label", "--annotations", str(workspace["annotations"]), "--out", str(crops)]
        ) == 0
        common = [
            "--annotations", str(crops / "annotations.json"),
            "--scenes", str(workspace["scenes"]), "--backend", "oracle", "--seed", "5",
        ]
        predicted, relabeled = tmp_path / "predicted", tmp_path / "relabeled"
        assert run(["infer", *common, "--out", str(predicted)]) == 0
        assert run(["infer", *common, "--crop-mode", "relabeled", "--out", str(relabeled)]) == 0
        assert sha256(predicted / "detections.tsv") == (
            "d81b51edc95e27b7403662690b53f107ba8d35d23cec1d9f477456c5c7766382"
        )
        assert sha256(relabeled / "detections.tsv") == (
            "74304f9565b7f98af883c81ece8ec6113a5f90180487929c93a6e3d2d0efb3ae"
        )


class TestReplay:
    def test_train_replay_byte_identical(self, workspace, trained, tmp_path):
        replay_out = tmp_path / "replay_train"
        assert run(
            [
                "replay",
                "--manifest", str(trained / "manifest.json"),
                "--out", str(replay_out),
            ]
        ) == 0
        for name in ("checkpoint.txt", "run_report.tsv"):
            assert (replay_out / name).read_bytes() == (trained / name).read_bytes()

    def test_infer_replay_byte_identical_across_workers(self, workspace, trained, tmp_path):
        first = tmp_path / "infer1"
        assert run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--checkpoint", str(trained / "checkpoint.txt"),
                "--out", str(first),
                "--seed", "5",
            ]
        ) == 0
        manifest_path = first / "manifest.json"
        manifest = read_manifest(manifest_path)
        manifest.params["workers"] = 4  # the worker count old manifests carry
        edited = tmp_path / "manifest4.json"
        write_manifest(manifest, edited)
        second = tmp_path / "infer4"
        assert run(["replay", "--manifest", str(edited), "--out", str(second)]) == 0
        assert (second / "detections.tsv").read_bytes() == (
            first / "detections.tsv"
        ).read_bytes()

    def test_replay_verifies_primary_outputs(self, workspace, tmp_path):
        dets = tmp_path / "oracle"
        assert run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--backend", "oracle",
                "--single-stage",
                "--out", str(dets),
                "--seed", "5",
            ]
        ) == 0
        eval_out = tmp_path / "eval"
        assert run(
            [
                "eval",
                "--annotations", str(workspace["annotations"]),
                "--detections", str(dets / "detections.tsv"),
                "--out", str(eval_out),
            ]
        ) == 0
        manifest_path = eval_out / "manifest.json"
        assert run(["replay", "--manifest", str(manifest_path), "--out", str(tmp_path / "r1")]) == 0

        manifest = read_manifest(manifest_path)
        manifest.primary_outputs()[0]["sha256"] = "0" * 64
        edited = tmp_path / "edited.json"
        write_manifest(manifest, edited)
        assert run(["replay", "--manifest", str(edited), "--out", str(tmp_path / "r2")]) == 4

    def oracle_infer_manifest(self, workspace, out):
        assert run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--backend", "oracle",
                "--out", str(out),
                "--seed", "5",
            ]
        ) == 0
        return json.loads((out / "manifest.json").read_text())

    def test_unknown_manifest_key_is_data_error(self, workspace, tmp_path):
        payload = self.oracle_infer_manifest(workspace, tmp_path / "infer")
        payload["params"]["oracle"]["bogus"] = 1
        edited = tmp_path / "bogus.json"
        edited.write_text(json.dumps(payload))
        assert run(["replay", "--manifest", str(edited), "--out", str(tmp_path / "r")]) == 3

    def test_missing_train_manifest_key_is_data_error(self, trained, tmp_path, capsys):
        payload = json.loads((trained / "manifest.json").read_text())
        del payload["params"]["trainer"]["max_iters"]
        edited = tmp_path / "no_max_iters.json"
        edited.write_text(json.dumps(payload))
        assert run(["replay", "--manifest", str(edited), "--out", str(tmp_path / "r")]) == 3
        assert "missing keys ['max_iters']" in capsys.readouterr().err

    def test_missing_infer_manifest_key_is_data_error(self, workspace, tmp_path, capsys):
        payload = self.oracle_infer_manifest(workspace, tmp_path / "infer")
        del payload["params"]["inference"]["fusion_iou"]
        edited = tmp_path / "no_fusion_iou.json"
        edited.write_text(json.dumps(payload))
        assert run(["replay", "--manifest", str(edited), "--out", str(tmp_path / "r")]) == 3
        assert "missing keys ['fusion_iou']" in capsys.readouterr().err

    def crops_label_manifest(self, workspace, out):
        assert run(
            ["crops", "label", "--annotations", str(workspace["annotations"]), "--out", str(out)]
        ) == 0
        return json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize(
        "key, value", [("theta", "abc"), ("merge_steps", True), ("sigma", False), ("pi", None)]
    )
    def test_mistyped_manifest_value_is_data_error(self, workspace, tmp_path, capsys, key, value):
        # a string, or a bool or null where a number is declared, is refused
        # before any dataclass sees it
        payload = self.crops_label_manifest(workspace, tmp_path / "crops")
        payload["params"]["crops"][key] = value
        edited = tmp_path / "mistyped.json"
        edited.write_text(json.dumps(payload))
        assert run(["replay", "--manifest", str(edited), "--out", str(tmp_path / "r")]) == 3
        assert f"parameter {key} = {value!r} is not of type" in capsys.readouterr().err

    def test_int_manifest_value_of_a_float_field_replays(self, workspace, tmp_path):
        first = tmp_path / "crops"
        payload = self.crops_label_manifest(workspace, first)
        assert payload["params"]["crops"]["sigma"] == 15.0
        payload["params"]["crops"]["sigma"] = 15
        edited = tmp_path / "int_sigma.json"
        edited.write_text(json.dumps(payload))
        second = tmp_path / "replayed"
        assert run(["replay", "--manifest", str(edited), "--out", str(second)]) == 0
        assert (second / "annotations.json").read_bytes() == (first / "annotations.json").read_bytes()

    def test_old_manifest_with_workers_and_upscale_relief_replays(self, workspace, tmp_path):
        first = tmp_path / "infer"
        payload = self.oracle_infer_manifest(workspace, first)
        # the keys an infer manifest carried before the thread pool and
        # the oracle's upscale path were removed
        payload["workers"] = 4
        payload["params"]["workers"] = 4
        payload["params"]["oracle"]["upscale_relief"] = 0.5
        edited = tmp_path / "old.json"
        edited.write_text(json.dumps(payload))
        second = tmp_path / "replayed"
        assert run(["replay", "--manifest", str(edited), "--out", str(second)]) == 0
        assert (second / "detections.tsv").read_bytes() == (first / "detections.tsv").read_bytes()

    def test_old_manifest_with_detector_emit_floor_and_bg_tau_replays(
        self, workspace, trained, tmp_path
    ):
        first = tmp_path / "infer"
        assert run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--checkpoint", str(trained / "checkpoint.txt"),
                "--crop-mode", "relabeled",
                "--crop-score-threshold", "0.25",
                "--out", str(first),
                "--seed", "5",
            ]
        ) == 0
        payload = json.loads((first / "manifest.json").read_text())
        assert not {"emit_floor", "bg_tau"} & set(payload["params"]["detector"])
        # the values every toy manifest carried while they were fields
        payload["params"]["detector"].update(emit_floor=0.15, bg_tau=0.9)
        edited = tmp_path / "old.json"
        edited.write_text(json.dumps(payload))
        second = tmp_path / "replayed"
        assert run(["replay", "--manifest", str(edited), "--out", str(second)]) == 0
        assert (second / "detections.tsv").read_bytes() == (first / "detections.tsv").read_bytes()

    def test_misspelled_infer_key_is_data_error(self, workspace, trained, tmp_path, capsys):
        first = tmp_path / "infer"
        assert run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--checkpoint", str(trained / "checkpoint.txt"),
                "--out", str(first),
                "--seed", "5",
            ]
        ) == 0
        payload = json.loads((first / "manifest.json").read_text())
        payload["params"]["use_studnet"] = not payload["params"].pop("use_student")
        edited = tmp_path / "typo.json"
        edited.write_text(json.dumps(payload))
        assert run(["replay", "--manifest", str(edited), "--out", str(tmp_path / "r")]) == 3
        assert "unknown keys ['use_studnet']" in capsys.readouterr().err

    def test_missing_top_level_seed_is_data_error(self, workspace, tmp_path, capsys):
        first = tmp_path / "infer"
        assert run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--backend", "oracle",
                "--out", str(first),
            ]
        ) == 0
        payload = json.loads((first / "manifest.json").read_text())
        del payload["params"]["seed"]
        edited = tmp_path / "no_seed.json"
        edited.write_text(json.dumps(payload))
        assert run(["replay", "--manifest", str(edited), "--out", str(tmp_path / "r")]) == 3
        assert "missing keys ['seed']" in capsys.readouterr().err

    def test_replay_rejects_changed_inputs(self, workspace, tmp_path):
        data = tmp_path / "gen"
        assert run(["dataset", "gen", "--out", str(data), "--num-images", "2"]) == 0
        split_out = tmp_path / "sp"
        assert run(
            [
                "dataset", "split", "--annotations", str(data / "annotations.json"),
                "--out", str(split_out), "--fraction", "0.5",
            ]
        ) == 0
        # tamper with the input
        ann = data / "annotations.json"
        ann.write_text(ann.read_text() + "\n")
        assert run(
            ["replay", "--manifest", str(split_out / "manifest.json"), "--out", str(tmp_path / "r")]
        ) == 3


class TestExitCodes:
    def test_config_error_is_two(self, workspace, tmp_path):
        code = run(
            [
                "train",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--split", str(workspace["split"]),
                "--out", str(tmp_path / "t"),
                "--burn-in-iters", "50",
                "--max-iters", "20",  # burn-in exceeds max
                "--crop-start-iter", "60",
                "--learning-rate", "0.01",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--data-ratio", "nan"), ("--checkpoint-interval", "-10")])
    def test_bad_trainer_value_is_config_error(self, workspace, tmp_path, flag, value):
        code = run(
            [
                "train",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--split", str(workspace["split"]),
                "--out", str(tmp_path / "t"),
                "--burn-in-iters", "5",
                "--max-iters", "10",
                "--crop-start-iter", "8",
                "--learning-rate", "0.01",
                flag, value,
            ]
        )
        assert code == 2

    def test_resume_from_another_layout_is_data_error(self, workspace, tmp_path, capsys):
        # the workspace has three classes; the checkpoint was saved with five
        from densecrop import teacher

        weights = detect.ToyDetector(detect.ToyDetectorConfig(num_base_classes=5)).init_weights(0)
        ckpt = tmp_path / "five.txt"
        teacher.write_checkpoint(ckpt, weights, weights, 6, 5)
        code = run(
            [
                "train",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--split", str(workspace["split"]),
                "--out", str(tmp_path / "t"),
                "--burn-in-iters", "5",
                "--max-iters", "10",
                "--crop-start-iter", "8",
                "--learning-rate", "0.01",
                "--resume", str(ckpt),
            ]
        )
        assert code == 3
        assert "layout" in capsys.readouterr().err

    def test_data_error_is_three(self, tmp_path):
        code = run(
            [
                "eval",
                "--annotations", str(tmp_path / "absent.json"),
                "--detections", str(tmp_path / "absent.tsv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 3

    def test_failed_image_is_data_error_after_outputs(self, workspace, tmp_path, monkeypatch, capsys):
        class FailingBackend(detect.OracleBackend):
            def detect_batch(self, weights, scenes):
                if 2 in scenes.image_ids:
                    raise RuntimeError("backend exploded")
                return super().detect_batch(weights, scenes)

        monkeypatch.setattr(detect, "OracleBackend", FailingBackend)
        out = tmp_path / "i"
        code = run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--backend", "oracle",
                "--out", str(out),
            ]
        )
        assert code == 3
        for name in ("detections.tsv", "timings.tsv", "manifest.json"):
            assert (out / name).exists()
        errors = {
            line.split("\t")[0]: line.split("\t")[3]
            for line in (out / "timings.tsv").read_text().splitlines()[1:]
        }
        assert errors.pop("2") == "RuntimeError: backend exploded"
        assert set(errors.values()) == {""}
        assert read_manifest(out / "manifest.json").timings["image_errors"] == 1
        captured = capsys.readouterr()
        assert "1 errors" in captured.out
        assert "1 of 10 images" in captured.err and "timings.tsv" in captured.err

    def test_invariant_violation_in_backend_is_four(self, workspace, tmp_path, monkeypatch):
        class BrokenBackend(detect.OracleBackend):
            def detect_batch(self, weights, scenes):
                raise InvariantViolation("broken invariant")

        monkeypatch.setattr(detect, "OracleBackend", BrokenBackend)
        code = run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--backend", "oracle",
                "--out", str(tmp_path / "i"),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "case",
        [
            "split seed", "split fraction", "scene box", "scene width nan", "scene height zero",
            "scene width other",
            "detection score", "checkpoint",
            "checkpoint nan", "checkpoint header infinite", "checkpoint header classes missing",
            "checkpoint header classes string", "checkpoint header iteration string",
            "bbox nan", "bbox infinite width",
            "image width nan", "image width zero", "category id infinite",
            "category entry id infinite", "report per_class key", "report list",
            "report AP string", "report error_counts list",
        ],
    )
    def test_malformed_input_file_is_data_error(self, case, workspace, trained, tmp_path, capsys):
        # A malformed input file exits 3 with an error line, never with an
        # uncaught exception (which the interpreter turns into exit 1) or
        # an invariant violation (exit 4). Python's json reads NaN and
        # Infinity literals.
        ann, scenes = str(workspace["annotations"]), str(workspace["scenes"])
        bad, out = tmp_path / "bad", str(tmp_path / "out")
        if case.startswith(("bbox", "image", "category")):
            payload = json.loads(workspace["annotations"].read_text())
            first = payload["annotations"][0]
            target, key, value = {
                "bbox nan": (first["bbox"], 0, float("nan")),
                "bbox infinite width": (first["bbox"], 2, float("inf")),
                "image width nan": (payload["images"][0], "width", float("nan")),
                "image width zero": (payload["images"][0], "width", 0),
                "category id infinite": (first, "category_id", float("inf")),
                "category entry id infinite": (payload["categories"][0], "id", float("inf")),
            }[case]
            target[key] = value
            bad.write_text(json.dumps(payload))
            argv = ["dataset", "tile", "--annotations", str(bad), "--out", out, "--tile", "256"]
        elif case.startswith("report"):
            payload = {
                "report per_class key": {"metrics": {"AP": 0.5}, "per_class": {"x": 0.5}},
                "report list": [],
                "report AP string": {"metrics": {"AP": "high"}},
                "report error_counts list": {"metrics": {"AP": 0.5}, "error_counts": ["x"]},
            }[case]
            bad.write_text(json.dumps(payload))
            argv = ["report", "--reports", str(bad), str(bad), "--out", out]
        elif case.startswith("split"):
            key = case.split()[1]
            bad.write_text(re.sub(rf"{key}=\S+", f"{key}=abc", workspace["split"].read_text()))
            argv = [
                "train", "--annotations", ann, "--scenes", scenes, "--split", str(bad),
                "--out", out, "--burn-in-iters", "1", "--max-iters", "2",
                "--crop-start-iter", "3", "--learning-rate", "0.01",
            ]
        elif case.startswith("scene"):
            payload = json.loads(workspace["scenes"].read_text())
            scene = next(iter(payload["scenes"].values()))
            if case == "scene box":
                box = scene["objects"][0]["box"]
                box[2] = box[0]  # zero width
            else:
                _, key, value = case.split()
                scene[key] = {"nan": float("nan"), "zero": 0, "other": scene[key] / 2}[value]
            bad.write_text(json.dumps(payload))
            argv = ["infer", "--annotations", ann, "--scenes", str(bad), "--backend", "oracle",
                    "--out", out]
        elif case == "detection score":
            bad.write_text("1\t0\thigh\t0.0\t0.0\t10.0\t10.0\n")
            argv = ["eval", "--annotations", ann, "--detections", str(bad), "--out", out]
        else:
            lines = (trained / "checkpoint.txt").read_text().splitlines()
            if case == "checkpoint nan":
                lines[-1] = "nan"
            elif case == "checkpoint header infinite":
                lines[0] = json.dumps({**json.loads(lines[0]), "feature_dim": float("inf")})
            elif case.startswith("checkpoint header"):
                header = json.loads(lines[0])
                key = "iteration" if case.endswith("iteration string") else "num_base_classes"
                if case.endswith("missing"):
                    del header[key]
                else:
                    header[key] = "x"
                lines[0] = json.dumps(header)
            else:
                del lines[-3:]  # teacher section cut short
            bad.write_text("\n".join(lines) + "\n")
            argv =["infer", "--annotations", ann, "--scenes", scenes, "--checkpoint", str(bad),
                    "--out", out]
            if case.endswith("iteration string"):
                argv = [
                    "train", "--annotations", ann, "--scenes", scenes, "--split",
                    str(workspace["split"]), "--resume", str(bad), "--out", out,
                    "--burn-in-iters", "30", "--max-iters", "62", "--crop-start-iter", "45",
                    "--learning-rate", "0.05",
                ]
        assert run(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("case", ["ragged train", "narrow train", "narrow infer"])
    def test_short_object_payload_is_data_error(self, case, workspace, trained, tmp_path, capsys):
        # The toy detector reads num_base_classes (here 3) payload values
        # per object: one short payload makes the scene ragged, all of
        # them short make it narrower than the detector.
        payload = json.loads(workspace["scenes"].read_text())
        objects = [obj for scene in payload["scenes"].values() for obj in scene["objects"]]
        for obj in objects[:1] if case.startswith("ragged") else objects:
            del obj["payload"][2:]
        bad = tmp_path / "scenes.json"
        bad.write_text(json.dumps(payload))
        ann, out = str(workspace["annotations"]), str(tmp_path / "out")
        if case.endswith("infer"):
            argv = ["infer", "--annotations", ann, "--scenes", str(bad),
                    "--checkpoint", str(trained / "checkpoint.txt"), "--out", out]
        else:
            argv = [
                "train", "--annotations", ann, "--scenes", str(bad),
                "--split", str(workspace["split"]), "--out", out, "--burn-in-iters", "1",
                "--max-iters", "2", "--crop-start-iter", "3", "--learning-rate", "0.01",
            ]
        assert run(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_checkpoint_flag_is_config_error(self, workspace, tmp_path):
        code = run(
            [
                "infer",
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--out", str(tmp_path / "i"),
            ]
        )
        assert code == 2


class TestConfigFilePrecedence:
    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[synthetic]\nnum_images = 4\nnum_classes = 2\n\n[run]\nseed = 9\n")
        out = tmp_path / "gen"
        assert run(
            ["dataset", "gen", "--config", str(cfg), "--out", str(out), "--num-images", "6"]
        ) == 0
        loaded = load_annotations(out / "annotations.json")
        assert len(loaded.records) == 6  # flag wins
        manifest = read_manifest(out / "manifest.json")
        assert manifest.seed == 9  # file seed used when no flag

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[synthetic]\nbogus_key = 1\n")
        assert run(["dataset", "gen", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(example)
        raw = config.load_config_file(path)  # checks every section and key
        assert set(raw) == set(config.PARSERS)  # the example shows every section
        sections = {name: raw[name] for name in config.SECTIONS}
        sections["detector"]["num_base_classes"] = 5
        params = config.build_params(sections, raw["run"]["seed"])
        assert params["trainer"]["crop_params"] == params["detector"]["proposal_crop_params"]
        assert params["trainer"]["upscale"]["target"] == 512
        for section in ("split", "tile", "errors"):
            values = config.build_params({section: raw[section]}, None)
            assert values == raw[section] and values

    def test_run_section_accepts_only_seed(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nseed = 4\n")
        out = tmp_path / "g"
        assert run(["dataset", "gen", "--config", str(cfg), "--out", str(out), "--num-images", "1"]) == 0
        assert read_manifest(out / "manifest.json").seed == 4
        cfg.write_text("[run]\nseed = 4\nworkers = 2\n")
        argv = ["dataset", "gen", "--config", str(cfg), "--out", str(tmp_path / "h"), "--num-images", "1"]
        assert run(argv) == 2
        assert run(argv + ["--seed", "1"]) == 2


class TestConfigFileChecks:
    @pytest.mark.parametrize("section", ["synthetic", "trainer", "detector", "oracle"])
    def test_nested_seed_points_at_run_seed(self, section, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{section}]\nseed = 9\n")
        out = tmp_path / "g"
        argv = ["dataset", "gen", "--config", str(cfg), "--out", str(out), "--num-images", "1"]
        assert run(argv) == 2
        assert "[run] seed" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_detector_num_base_classes_is_not_a_file_key(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[detector]\nnum_base_classes = 2\n")  # the data has 3 classes
        out = tmp_path / "t"
        code = run(
            [
                "train", "--config", str(cfg),
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--split", str(workspace["split"]),
                "--out", str(out),
                "--burn-in-iters", "1", "--max-iters", "2", "--crop-start-iter", "5",
                "--learning-rate", "0.01",
            ]
        )
        assert code == 2
        assert not (out / "checkpoint.txt").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("synthetic", "width", "nan"),
            ("synthetic", "width", "inf"),
            ("synthetic", "cluster_spread", "-1"),
            ("synthetic", "payload_noise", "nan"),
            ("synthetic", "large_size", "40, 600"),
            ("synthetic", "num_classes", "2147483648"),
            ("detector", "strong_noise_std", "-1"),
            ("detector", "init_scale", "-1"),
            ("detector", "proposal_jitter", "-1"),
            ("detector", "background_proposals", "-1"),
            ("detector", "fg_iou", "nan"),
            ("detector", "weak_flip_prob", "nan"),
            ("detector", "strong_cutout", "-2"),
        ],
    )
    def test_bad_value_is_config_error(self, section, key, value, workspace, tmp_path):
        # refused when the config is built, before the command writes anything
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        if section == "synthetic":
            argv = ["dataset", "gen", "--config", str(cfg), "--out", str(out), "--num-images", "2"]
        else:
            argv = [
                "train", "--config", str(cfg),
                "--annotations", str(workspace["annotations"]),
                "--scenes", str(workspace["scenes"]),
                "--split", str(workspace["split"]),
                "--out", str(out),
                "--burn-in-iters", "1", "--max-iters", "2", "--crop-start-iter", "5",
                "--learning-rate", "0.01",
            ]
        assert run(argv) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--theta", "2"), ("--sigma", "nan"), ("--merge-steps", "0")]
    )
    def test_bad_crop_param_is_config_error(self, flag, value, workspace, tmp_path):
        out = tmp_path / "out"
        argv = ["crops", "label", "--annotations", str(workspace["annotations"]), "--out", str(out)]
        assert run(argv + [flag, value]) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("jitter_std", "-1"), ("miss_curve", "5:0.5"), ("fp_score_range", "0.6, 0.4")],
    )
    def test_bad_oracle_noise_is_config_error(self, key, value, workspace, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[oracle]\n{key} = {value}\n")
        out = tmp_path / "out"
        argv = [
            "infer", "--config", str(cfg),
            "--annotations", str(workspace["annotations"]),
            "--scenes", str(workspace["scenes"]),
            "--backend", "oracle", "--out", str(out),
        ]
        assert run(argv) == 2
        assert not (out / "manifest.json").exists()

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[synthetc]\nnum_images = 2\n")
        assert run(["dataset", "gen", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2

    def test_section_the_command_does_not_read_is_checked(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[crops]\nbogus = 1\n")
        argv = [
            "dataset", "split", "--config", str(cfg),
            "--annotations", str(workspace["annotations"]),
            "--out", str(tmp_path / "s"), "--fraction", "0.5",
        ]
        assert run(argv) == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["eval", "--detections", "d.tsv"], "--seed"),
            (["eval", "--detections", "d.tsv"], "--config"),
            (["errors", "--detections", "d.tsv"], "--seed"),
            (["report", "--reports", "r.json"], "--seed"),
            (["report", "--reports", "r.json"], "--config"),
            (["dataset", "tile"], "--seed"),
            (["crops", "label"], "--seed"),
        ],
    )
    def test_ignored_seed_and_config_flags_are_not_offered(self, argv, flag, capsys):
        if argv[0] != "report":
            argv = argv + ["--annotations", "a.json"]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", "o", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
