"""Key/value config files and their mapping onto the toolkit dataclasses.

A config file is INI-style text whose sections mirror the parameter
bundles: [synthetic], [crops], [upscale], [trainer], [inference],
[oracle], [detector], [run]. Every CLI flag has a config-file equivalent;
flags override file values, which override the documented defaults. An
unknown key is a ConfigError in a config file and a DataError in a
manifest.
"""

from __future__ import annotations

import configparser
import dataclasses
import os

from .croplab import CropParams
from .dataset import SyntheticConfig, UpscalePolicy
from .detect import OracleNoiseModel, ToyDetectorConfig
from .errors import ConfigError, DataError
from .infer import InferenceConfig
from .teacher import TrainerConfig

__all__ = [
    "load_config_file",
    "build_crop_params",
    "build_upscale",
    "build_synthetic",
    "build_oracle",
    "build_detector",
    "build_trainer",
    "build_inference",
    "params_dict",
    "crop_params_from_dict",
    "synthetic_from_dict",
    "oracle_from_dict",
    "detector_from_dict",
    "trainer_from_dict",
    "inference_from_dict",
]


def load_config_file(path: str | os.PathLike | None) -> dict[str, dict[str, str]]:
    """Raw section -> {key: value} mapping; empty when no file is given."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} is malformed: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_pair(text: str, conv) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected 'low, high', got {text!r}")
    return (conv(parts[0]), conv(parts[1]))


def _parse_curve(text: str) -> tuple:
    """Breakpoints like '0:0.9, 1024:0.3, 9216:0.05'."""
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"miss_curve breakpoint {chunk!r} is not 'area:prob'")
        area, prob = chunk.split(":", 1)
        points.append((float(area), float(prob)))
    if not points:
        raise ConfigError("miss_curve has no breakpoints")
    return tuple(points)


def _optional_int(text: str) -> int | None:
    return None if not text.strip() else int(text)


_PARSERS = {
    "crops": {
        "merge_steps": int,
        "sigma": float,
        "theta": float,
        "pi": float,
        "min_cluster": int,
    },
    "upscale": {"mode": str, "target": float, "factor": float},
    "synthetic": {
        "num_images": int,
        "width": float,
        "height": float,
        "num_classes": int,
        "clusters_per_image": lambda t: _parse_pair(t, int),
        "objects_per_cluster": lambda t: _parse_pair(t, int),
        "cluster_spread": float,
        "small_size": lambda t: _parse_pair(t, float),
        "scattered_per_image": lambda t: _parse_pair(t, int),
        "large_size": lambda t: _parse_pair(t, float),
        "payload_noise": float,
        "seed": int,
    },
    "oracle": {
        "miss_curve": _parse_curve,
        "jitter_std": float,
        "score_mean": float,
        "score_std": float,
        "fp_rate": float,
        "fp_score_range": lambda t: _parse_pair(t, float),
        "emit_crops": _parse_bool,
        "seed": int,
    },
    "detector": {
        "num_base_classes": int,
        "proposal_jitter": float,
        "background_proposals": int,
        "fg_iou": float,
        "payload_obs_scale": float,
        "weak_flip_prob": float,
        "strong_noise_std": float,
        "strong_cutout": int,
        "init_scale": float,
        "seed": int,
    },
    "trainer": {
        "burn_in_iters": int,
        "max_iters": int,
        "crop_start_iter": int,
        "learning_rate": float,
        "lambda_unsup": float,
        "tau": float,
        "alpha": float,
        "crop_recompute_period": int,
        "data_ratio": float,
        "labeled_batch": int,
        "lr_decay_iter": _optional_int,
        "lr_decay_factor": float,
        "crops_on_labeled": _parse_bool,
        "checkpoint_interval": _optional_int,
        "seed": int,
    },
    "inference": {
        "crop_mode": str,
        "crop_score_threshold": float,
        "max_crops_per_image": int,
        "fusion_iou": float,
        "multistage": _parse_bool,
    },
    "split": {"fraction": float},
    "tile": {"tile": float, "stride": float},
    "errors": {"fg_iou": float, "bg_iou": float},
    "run": {"seed": int},
}


def simple_section(raw: dict, section: str, **overrides) -> dict:
    """Typed values for the small flag-mirror sections."""
    return _collect(section, raw, overrides)


def _collect(section: str, raw: dict[str, dict[str, str]], overrides: dict) -> dict:
    """Defaults <- file section <- CLI overrides, with unknown keys rejected."""
    parsers = _PARSERS[section]
    values: dict = {}
    for key, text in raw.get(section, {}).items():
        if key not in parsers:
            raise ConfigError(f"unknown key {key!r} in config section [{section}]")
        try:
            values[key] = parsers[key](text)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in parsers:
            raise ConfigError(f"unknown {section} parameter {key!r}")
        values[key] = value
    return values


def build_crop_params(raw: dict, **overrides) -> CropParams:
    return CropParams(**_collect("crops", raw, overrides))


def build_upscale(raw: dict, **overrides) -> UpscalePolicy:
    return UpscalePolicy(**_collect("upscale", raw, overrides))


def build_synthetic(raw: dict, **overrides) -> SyntheticConfig:
    return SyntheticConfig(**_collect("synthetic", raw, overrides))


def build_oracle(raw: dict, **overrides) -> OracleNoiseModel:
    return OracleNoiseModel(**_collect("oracle", raw, overrides))


def build_detector(
    raw: dict,
    num_base_classes: int,
    crop_params: CropParams | None = None,
    **overrides,
) -> ToyDetectorConfig:
    values = _collect("detector", raw, overrides)
    values.setdefault("num_base_classes", num_base_classes)
    return ToyDetectorConfig(proposal_crop_params=crop_params, **values)


def build_trainer(
    raw: dict, crop_params: CropParams, upscale: UpscalePolicy, **overrides
) -> TrainerConfig:
    values = _collect("trainer", raw, overrides)
    missing = {"burn_in_iters", "max_iters", "crop_start_iter", "learning_rate"} - set(values)
    if missing:
        raise ConfigError(f"trainer config is missing {sorted(missing)}")
    return TrainerConfig(crop_params=crop_params, upscale=upscale, **values)


def build_inference(
    raw: dict, crop_params: CropParams, upscale: UpscalePolicy, **overrides
) -> InferenceConfig:
    values = _collect("inference", raw, overrides)
    return InferenceConfig(crop_params=crop_params, upscale=upscale, **values)


# ---------------------------------------------------------------------------
# Manifest round-tripping
# ---------------------------------------------------------------------------


def params_dict(obj) -> dict:
    """JSON-serializable snapshot of a config dataclass."""
    return dataclasses.asdict(obj)


def _tupled(value):
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def _from_dict(cls, data: dict, **nested):
    """``cls`` rebuilt from its ``params_dict``; ``nested`` maps a field
    to the dataclass its sub-dict rebuilds. Unknown and missing keys are a
    DataError: a manifest records every field, so a missing one would
    otherwise be replaced by today's default without notice."""
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown, missing = sorted(set(data) - fields), sorted(fields - set(data))
    if unknown:
        raise DataError(f"manifest {cls.__name__} parameters have unknown keys {unknown}")
    if missing:
        raise DataError(f"manifest {cls.__name__} parameters are missing keys {missing}")
    values = {k: _tupled(v) for k, v in data.items()}
    for key, sub in nested.items():
        if values.get(key) is not None:
            values[key] = _from_dict(sub, values[key])
    return cls(**values)


def crop_params_from_dict(data: dict) -> CropParams:
    return _from_dict(CropParams, data)


def synthetic_from_dict(data: dict) -> SyntheticConfig:
    return _from_dict(SyntheticConfig, data)


def oracle_from_dict(data: dict) -> OracleNoiseModel:
    # Manifests written while the oracle had an upscale path carry
    # ``upscale_relief``; infer never upscaled the oracle, so it changed
    # no output and is dropped.
    data = {k: v for k, v in data.items() if k != "upscale_relief"}
    return _from_dict(OracleNoiseModel, data)


def detector_from_dict(data: dict) -> ToyDetectorConfig:
    return _from_dict(ToyDetectorConfig, data, proposal_crop_params=CropParams)


def trainer_from_dict(data: dict) -> TrainerConfig:
    return _from_dict(TrainerConfig, data, crop_params=CropParams, upscale=UpscalePolicy)


def inference_from_dict(data: dict) -> InferenceConfig:
    return _from_dict(InferenceConfig, data, crop_params=CropParams, upscale=UpscalePolicy)
