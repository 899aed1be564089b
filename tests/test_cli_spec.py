"""Tests generated from the CLI command table.

Every flag of every command, and every key of every config section a
command reads, must change the params the command records; every params
sub-dict must round-trip through ``config.from_dict``; and every
``densecrop`` line of the README must parse. A new flag, key or section is
covered as soon as it enters the table: the sample values below must name
it, or these tests fail.
"""

import dataclasses
import json
import shlex
import shutil
from pathlib import Path

import pytest

from densecrop import cli, config

# A value for each flag, different from what the baseline run gives it;
# None marks a switch. Path flags take their value from the ``files``
# fixture (the copy of each baseline input).
FLAG_SAMPLES = {
    "--seed": "11",
    "--num-images": "3",
    "--num-classes": "2",
    "--tile": "300",
    "--stride": "128",
    "--fraction": "0.25",
    "--merge-steps": "2",
    "--sigma": "7",
    "--theta": "0.2",
    "--pi": "0.5",
    "--min-cluster": "3",
    "--burn-in-iters": "0",
    "--max-iters": "4",
    "--crop-start-iter": "3",
    "--learning-rate": "0.02",
    "--lambda": "2",
    "--tau": "0.5",
    "--alpha": "0.99",
    "--data-ratio": "0.5",
    "--labeled-batch": "3",
    "--checkpoint-interval": "1",
    "--crops-on-labeled": None,
    "--backend": "oracle",
    "--use-student": None,
    "--crop-mode": "relabeled",
    "--crop-score-threshold": "0.3",
    "--max-crops": "2",
    "--fusion-iou": "0.6",
    "--single-stage": None,
    "--fg-iou": "0.4",
    "--bg-iou": "0.2",
    "--exclude-category-id": "1",
    "--names": "x",
}
PATH_FLAGS = {
    "--out", "--annotations", "--scenes", "--split", "--checkpoint", "--resume",
    "--detections", "--reports",
}

# Config-file text for each key, different from the baseline value.
KEY_SAMPLES = {
    "crops": {"merge_steps": "2", "sigma": "7", "theta": "0.2", "pi": "0.5", "min_cluster": "3"},
    "upscale": {"mode": "factor", "target": "256", "factor": "2"},
    "synthetic": {
        "num_images": "3", "width": "300", "height": "300", "num_classes": "2",
        "clusters_per_image": "0, 2", "objects_per_cluster": "3, 4", "cluster_spread": "10",
        "small_size": "5, 9", "scattered_per_image": "1, 2", "large_size": "30, 40",
        "payload_noise": "0.1",
    },
    "oracle": {
        "miss_curve": "0:0.5, 100:0.1", "jitter_std": "1", "score_mean": "0.8",
        "score_std": "0.1", "fp_rate": "0.5", "fp_score_range": "0.2, 0.4",
        "emit_crops": "false",
    },
    "detector": {
        "proposal_jitter": "2", "background_proposals": "4", "fg_iou": "0.6",
        "payload_obs_scale": "2", "weak_flip_prob": "0.3", "strong_noise_std": "0.2",
        "strong_cutout": "2", "init_scale": "0.02",
    },
    "trainer": {
        "burn_in_iters": "0", "max_iters": "4", "crop_start_iter": "3", "learning_rate": "0.02",
        "lambda_unsup": "2", "tau": "0.5", "alpha": "0.99", "crop_recompute_period": "5",
        "data_ratio": "0.5", "labeled_batch": "3", "lr_decay_iter": "1",
        "lr_decay_factor": "0.5", "crops_on_labeled": "true", "checkpoint_interval": "1",
    },
    "inference": {
        "crop_mode": "relabeled", "crop_score_threshold": "0.3", "max_crops_per_image": "2",
        "fusion_iou": "0.6", "multistage": "false",
    },
    "split": {"fraction": "0.25"},
    "tile": {"tile": "300", "stride": "128"},
    "errors": {"fg_iou": "0.4", "bg_iou": "0.2"},
    "run": {"seed": "11"},
}

# Values a baseline run needs beyond its path flags, given in its config
# file so that both a flag and a file key can change them.
BASE_SECTIONS = {
    "dataset-tile": {"tile": {"tile": "256"}},
    "dataset-split": {"split": {"fraction": "0.5"}},
    "train": {
        "trainer": {
            "burn_in_iters": "1", "max_iters": "2", "crop_start_iter": "5",
            "learning_rate": "0.01",
        }
    },
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Every input a baseline run names, plus a copy of each at a second
    path; a path flag is exercised by pointing it at the copy."""
    root = tmp_path_factory.mktemp("spec")
    data = root / "data"
    assert cli.main(["dataset", "gen", "--out", str(data), "--num-images", "4", "--seed", "2"]) == 0
    assert cli.main(
        [
            "dataset", "split", "--annotations", str(data / "annotations.json"),
            "--out", str(root / "split"), "--fraction", "0.5", "--seed", "2",
        ]
    ) == 0
    assert cli.main(
        [
            "train", "--annotations", str(data / "annotations.json"),
            "--scenes", str(data / "scenes.json"), "--split", str(root / "split" / "split.txt"),
            "--out", str(root / "train"), "--burn-in-iters", "1", "--max-iters", "2",
            "--crop-start-iter", "5", "--learning-rate", "0.01",
        ]
    ) == 0
    assert cli.main(
        [
            "infer", "--annotations", str(data / "annotations.json"),
            "--scenes", str(data / "scenes.json"), "--backend", "oracle",
            "--out", str(root / "infer"),
        ]
    ) == 0
    assert cli.main(
        [
            "eval", "--annotations", str(data / "annotations.json"),
            "--detections", str(root / "infer" / "detections.tsv"), "--out", str(root / "eval"),
        ]
    ) == 0
    paths = {
        "--out": root / "out",
        "--annotations": data / "annotations.json",
        "--scenes": data / "scenes.json",
        "--split": root / "split" / "split.txt",
        "--checkpoint": root / "train" / "checkpoint.txt",
        "--resume": root / "train" / "checkpoint.txt",
        "--detections": root / "infer" / "detections.tsv",
        "--reports": root / "eval" / "report.json",
    }
    copies = {}
    for flag, path in paths.items():
        copy = root / "copies" / flag.strip("-") / path.name
        copy.parent.mkdir(parents=True)
        if path.exists():
            shutil.copy(path, copy)
        copies[flag] = str(copy)
    return {"root": root, "paths": {k: str(v) for k, v in paths.items()}, "copies": copies}


def baseline(name: str, files) -> list[str]:
    """Argv of a run of ``name`` with only the flags it requires."""
    spec = cli.COMMANDS[name]
    argv = name.split("-")
    for flag in spec.flags:
        if (flag.section is None and flag.required) or flag.option == "--checkpoint":
            argv += [flag.option, files["paths"][flag.option]]
    if name in BASE_SECTIONS:
        argv += ["--config", write_config(files, BASE_SECTIONS[name])]
    return argv


def write_config(files, sections: dict) -> str:
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        for section, values in sections.items()
    )
    path = files["root"] / "configs" / f"{abs(hash(text))}.ini"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    return str(path)


def captured_params(monkeypatch, argv) -> dict:
    """The params ``main`` hands the executor, which is replaced by a probe."""
    name = argv[0] if argv[0] in cli.COMMANDS else "-".join(argv[:2])
    seen = []
    spec = dataclasses.replace(cli.COMMANDS[name], run=seen.append)
    monkeypatch.setitem(cli.COMMANDS, name, spec)
    assert cli.main(argv) == 0
    (params,) = seen
    return params


def with_flag(argv: list[str], option: str, value) -> list[str]:
    if option in argv:
        argv = argv[: argv.index(option)] + argv[argv.index(option) + 2:]
    return argv + ([option] if value is None else [option, value])


def with_config(argv: list[str], files, name: str, section: str, key: str) -> list[str]:
    sections = {s: dict(v) for s, v in BASE_SECTIONS.get(name, {}).items()}
    sections.setdefault(section, {})[key] = KEY_SAMPLES[section][key]
    return with_flag(argv, "--config", write_config(files, sections))


def all_flags():
    for name, spec in cli.COMMANDS.items():
        options = [f.option for f in spec.flags] + (["--seed"] if spec.seed else [])
        for option in options:
            yield name, option


def all_keys():
    for name, spec in cli.COMMANDS.items():
        sections = spec.sections + (("run",) if spec.seed else ())
        for section in sections:
            for key in config.PARSERS[section]:
                yield name, section, key


def test_samples_cover_the_table():
    flags = {option for _, option in all_flags()}
    assert flags <= set(FLAG_SAMPLES) | PATH_FLAGS
    assert {s: set(keys) for s, keys in KEY_SAMPLES.items()} == {
        s: set(keys) for s, keys in config.PARSERS.items()
    }


def test_dataclass_keys_are_their_fields():
    # a dataclass section's keys are its fields, bar the root seed, the
    # derived class count and the nested sections, in field order
    for section, cls in config.SECTIONS.items():
        fields = [f.name for f in dataclasses.fields(cls)]
        skipped = {"seed", "num_base_classes", "crop_params", "proposal_crop_params", "upscale"}
        assert list(config.PARSERS[section]) == [f for f in fields if f not in skipped]


def test_field_of_unparsed_type_fails():
    @dataclasses.dataclass(frozen=True)
    class Listed:
        steps: int = 1
        sizes: list[int] = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match=r"Listed fields \['sizes'\]"):
        config._field_parsers(Listed)


@pytest.mark.parametrize("name, option", list(all_flags()))
def test_every_flag_changes_params(name, option, files, monkeypatch):
    argv = baseline(name, files)
    before = captured_params(monkeypatch, argv)
    value = files["copies"][option] if option in PATH_FLAGS else FLAG_SAMPLES[option]
    after = captured_params(monkeypatch, with_flag(argv, option, value))
    assert after != before


@pytest.mark.parametrize("name, section, key", list(all_keys()))
def test_every_config_key_a_command_reads_changes_params(name, section, key, files, monkeypatch):
    # a key of a section kept only for one choice of a flag (infer's
    # [oracle] and [detector]) is checked under each choice
    argvs = [baseline(name, files)]
    if section in cli.COMMANDS[name].when:
        argvs.append(with_flag(argvs[0], "--backend", "oracle"))
    changed = []
    for argv in argvs:
        before = captured_params(monkeypatch, argv)
        after = captured_params(monkeypatch, with_config(argv, files, name, section, key))
        changed.append(after != before)
    assert any(changed)


def test_params_sub_dicts_round_trip(files, monkeypatch):
    covered = set()
    for name in cli.COMMANDS:
        argvs = [baseline(name, files)]
        if name == "infer":
            argvs.append(with_flag(argvs[0], "--backend", "oracle"))
        for argv in argvs:
            params = captured_params(monkeypatch, argv)
            for section in config.SECTIONS.keys() & params.keys():
                recorded = json.loads(json.dumps(params[section]))  # as a manifest stores it
                rebuilt = config.from_dict(section, recorded)
                assert json.loads(json.dumps(dataclasses.asdict(rebuilt))) == recorded
                covered.add(section)
                covered |= {
                    nested for nested, cls in config.SECTIONS.items()
                    for value in vars(rebuilt).values() if isinstance(value, cls)
                }
    assert covered == set(config.SECTIONS)


def readme_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    walkthrough = readme.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1]
    text = walkthrough.split("```", 1)[0].replace("\\\n", " ")
    lines = [line.strip() for line in text.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("densecrop ")]


def test_readme_walkthrough_parses():
    commands = readme_commands()
    assert len(commands) == 9
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
