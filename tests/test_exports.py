"""Every exported name resolves, so a deleted definition cannot linger in
an ``__all__`` until a user's ``import *`` trips over it; no module
imports another module's private names, or a sibling inside a function."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import densecrop
from densecrop import croplab, dataset, detect, geometry, infer, metrics, seeding, teacher

import benchmarks
from reference_impls import record_stack, synthetic_dataset_ref

MODULES = sorted(m.name for m in pkgutil.iter_modules(densecrop.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"densecrop.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from densecrop.{name} import *", {})


def test_detector_contract_is_detect_batch():
    # one abstract method; no backend keeps a per-sample or augmented path
    assert detect.DetectorBackend.__abstractmethods__ == {"detect_batch"}
    for backend in (detect.DetectorBackend, detect.OracleBackend, detect.ToyDetector):
        assert not hasattr(backend, "detect") and not hasattr(backend, "detect_arrays")


def test_training_pools_are_stacks_gathered_by_index():
    # a pool is one view stack that batches take rows from, and the crop
    # cache is arrays: no per-view stacks, cache entries or child samples
    assert hasattr(detect.ViewStack, "take") and not hasattr(detect.ViewStack, "split")
    assert not hasattr(teacher, "CropCacheEntry")
    assert not hasattr(dataset, "crop_child_samples")


def test_burn_in_is_the_first_iterations_of_train():
    # one training loop: no separate burn-in loop or loss helper shared
    # between two loops
    assert not hasattr(teacher, "burn_in") and not hasattr(teacher, "_supervised_loss")


@pytest.mark.parametrize(
    "kernel",
    [
        croplab.label_density_crops,
        croplab.merge_round,
        detect.extract_features,
        detect.toy_forward,
        detect.ToyDetector.augment,
        detect.ToyDetector.features,
        geometry.nms_keep,
    ],
    ids=lambda kernel: kernel.__qualname__,
)
def test_stack_kernels_require_counts(kernel):
    # a ragged-stack kernel has one form: a single image is a stack of one
    counts = inspect.signature(kernel).parameters["counts"]
    assert counts.default is inspect.Parameter.empty


def test_crop_labeling_pairs_only_boxes_that_meet():
    # one pair search for crop labeling and NMS: no all-pairs path beside it
    assert not hasattr(croplab, "group_pairs") and hasattr(croplab, "meeting_pairs")


def test_chunks_close_by_an_object_budget():
    # every chunk kernel, AP matching included, is linear in its rows and
    # meeting pairs, so one object budget in geometry serves them all and no
    # squared pair budget is kept beside it
    assert hasattr(geometry, "CHUNK_OBJECTS") and not hasattr(geometry, "CHUNK_PAIRS")
    assert not hasattr(metrics, "_CHUNK_PAIRS") and metrics.chunk_bounds is geometry.chunk_bounds
    for module in (detect, infer, teacher):
        assert not hasattr(module, "CHUNK_OBJECTS") and not hasattr(module, "CHUNK_PAIRS")
    assert not hasattr(detect, "chunk_bounds")


def test_pairs_across_stacks_have_one_search():
    # features, targets and AP matching pair rows with another stack's
    # rows through geometry's one cross-stack search; no module keeps its
    # own search, block budget or listed-pair IoU beside it
    assert detect.meeting_pairs_across is geometry.meeting_pairs_across
    assert metrics.meeting_pairs_across is geometry.meeting_pairs_across
    assert not hasattr(metrics, "group_pairs") and not hasattr(geometry, "pair_ious")
    assert not [name for name in vars(detect) if "meeting" in name and name != "meeting_pairs_across"]
    assert not hasattr(detect, "_BLOCK_PAIRS") and not hasattr(geometry, "_BLOCK_PAIRS")


@pytest.mark.parametrize("mode", ["predicted", "relabeled"])
def test_stack_results_are_rows_and_counts(mode):
    # a multi-image result is rows plus per-image counts, never a list of
    # per-image arrays: a stack of two images without rows counts both
    stack = record_stack(dataset.ImageRecord(1, 100.0, 100.0), dataset.ImageRecord(2, 80.0, 60.0))
    toy = detect.ToyDetector(detect.ToyDetectorConfig(num_base_classes=2))
    values = np.zeros(toy.layout.total)
    values[(toy.background_class + 1) * toy.layout.columns - 1] = 50.0  # background bias
    oracle = detect.OracleBackend(2, detect.OracleNoiseModel())
    no_rows, none = (np.zeros((0, 4)), np.zeros(0, np.int64), np.zeros(0)), [0, 0]
    results = [
        croplab.label_density_crops(no_rows[0], stack.sizes, croplab.CropParams(), none),
        infer.select_crops(no_rows, none, infer.InferenceConfig(crop_mode=mode), stack.sizes, 2),
        detect.oracle_detect(stack, oracle.noise, 2),
        oracle.detect_batch(None, stack),
        toy.detect_batch(detect.WeightVector(toy.layout, values), stack),
    ]
    for result in results:
        assert isinstance(result, tuple) and result[-1].tolist() == none


def test_package_star_import():
    # the package re-exports by explicit imports, which already fail on a
    # stale name; ``import *`` must then hand out each of them
    namespace = {}
    exec("from densecrop import *", namespace)
    public = {
        n for n, v in vars(densecrop).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert public <= set(namespace)


SOURCES = sorted(Path(densecrop.__file__).parent.glob("*.py"))


def imports_sibling(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "densecrop"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "densecrop" for alias in node.names
    )


def test_no_private_names_imported_across_modules():
    # a name with a leading underscore is its module's own; a sibling that
    # needs it should get a public home for it instead
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and imports_sibling(node):
                names = [alias.name for alias in node.names]
                offenders += [f"{path.name}: {n}" for n in names if n.startswith("_")]
    assert offenders == []


def test_no_sibling_imports_inside_functions():
    # sibling imports sit at the top of a module, where its dependencies
    # show at a glance and an import cycle fails on import, not on the
    # first call that reaches a local import
    offenders = []
    for path in SOURCES:
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [
                    f"{path.name}: {func.name}" for node in ast.walk(func) if imports_sibling(node)
                ]
    assert offenders == []


def test_one_matcher_serves_every_evaluator(monkeypatch):
    # AP, the error profile and recall all match through metrics._match:
    # no second matching path runs beside it
    def refuse(*args, **kwargs):
        raise RuntimeError("matcher called")

    monkeypatch.setattr(metrics, "_match", refuse)
    gts = {1: [dataset.Annotation(box=geometry.Box(0, 0, 10, 10), class_id=0)]}
    dets = [(1, geometry.Detection(box=geometry.Box(0, 0, 10, 10), class_id=0, score=0.9))]
    for evaluator in (metrics.evaluate_ap, metrics.profile_errors, metrics.recall_by_size):
        with pytest.raises(RuntimeError, match="matcher called"):
            evaluator(gts, dets)


def test_ap_is_integrated_in_one_pass(monkeypatch):
    # every (range, class, threshold) of an evaluation is integrated by one
    # call: no per-row integration runs beside it or comes back in a loop
    assert not hasattr(metrics, "_interpolated_ap")
    calls = []
    integrate = metrics._interpolated_aps

    def counted(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(metrics, "_interpolated_aps", counted)
    box, big = geometry.Box(0, 0, 10, 10), geometry.Box(0, 0, 50, 50)
    gts = {
        1: [dataset.Annotation(box=box, class_id=0), dataset.Annotation(box=big, class_id=1)],
        2: [dataset.Annotation(box=big, class_id=0)],
    }
    dets = [
        (1, geometry.Detection(box=box, class_id=0, score=0.9)),
        (1, geometry.Detection(box=big, class_id=1, score=0.8)),
        (2, geometry.Detection(box=box, class_id=0, score=0.7)),
    ]
    report = metrics.evaluate_ap(gts, dets)
    assert len(calls) == 1 and report.ap_small is not None and report.ap_medium is not None


def test_scenes_are_decoded_from_raw_streams(monkeypatch):
    # scene generation reads each scene's raw PCG64 stream: no per-object
    # placement, no generator per scene, and no numpy draw but the
    # standard normals of a helper, for draws off the ziggurat's fast path
    assert not hasattr(dataset, "_place_object")
    helper_normals = []

    class Refusing(np.random.Generator):
        def normal(self, *args, **kwargs):
            raise RuntimeError("Generator draw called")

        uniform = integers = random = normal

        def standard_normal(self, *args, **kwargs):
            helper_normals.append(args)
            return super().standard_normal(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise RuntimeError("rng_for called")

    config = benchmarks.scene_config(2, 30)
    want = synthetic_dataset_ref(config)
    monkeypatch.setattr(np.random, "Generator", Refusing)
    monkeypatch.setattr(dataset, "rng_for", refuse)
    monkeypatch.setattr(seeding, "rng_for", refuse)
    monkeypatch.setattr(seeding, "rngs_for", refuse)
    got = dataset.generate_synthetic_dataset(config)
    assert helper_normals and all(args == () for args in helper_normals)
    for a, b in zip(got, want, strict=True):
        assert a.scene.object_payloads.tobytes() == b.scene.object_payloads.tobytes()
        assert a.scene.object_boxes.tobytes() == b.scene.object_boxes.tobytes()
