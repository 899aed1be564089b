"""Key/value config files and their mapping onto the toolkit dataclasses.

A config file is INI-style text whose sections mirror the parameter
bundles: [synthetic], [crops], [upscale], [trainer], [inference],
[oracle], [detector], the flag mirrors [split], [tile] and [errors], and
[run], whose only key is the root seed. Flags override file values, which
override the documented defaults. Path flags (``--annotations``,
``--checkpoint``, ...) have no file key, and neither do values derived
from the inputs, such as the detector's number of base classes. A
dataclass section's keys are declared once, as its class's fields: each
field's parser follows from its type, and the ``seed`` field, the derived
values and the fields that hold another section are not keys. The
whole file is checked when it is loaded, whichever command reads it: an
unknown section or key is a ConfigError. In a manifest an unknown key,
or a value whose JSON type does not fit its field, is a DataError.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
import typing

from .croplab import CropParams
from .dataset import SyntheticConfig, UpscalePolicy
from .detect import OracleNoiseModel, ToyDetectorConfig
from .errors import ConfigError, DataError
from .infer import InferenceConfig
from .teacher import TrainerConfig

__all__ = ["PARSERS", "SECTIONS", "load_config_file", "param_keys", "build_params", "from_dict"]


def load_config_file(path: str | os.PathLike | None) -> dict[str, dict]:
    """Typed section -> {key: value} mapping; empty when no file is given."""
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
    return {name: _typed(name, dict(parser[name])) for name in parser.sections()}


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


# Sections that build a dataclass; the other sections are flat values.
SECTIONS = {
    "crops": CropParams,
    "upscale": UpscalePolicy,
    "synthetic": SyntheticConfig,
    "oracle": OracleNoiseModel,
    "detector": ToyDetectorConfig,
    "trainer": TrainerConfig,
    "inference": InferenceConfig,
}

# Dataclass fields that hold another section's dataclass.
_NESTED = {"crop_params": "crops", "proposal_crop_params": "crops", "upscale": "upscale"}

# Dataclass fields that are no config key: the root seed, a value derived
# from the inputs, and the nested sections.
_NOT_KEYS = {"seed", "num_base_classes", *_NESTED}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_pair(check):
    return lambda v: isinstance(v, list | tuple) and len(v) == 2 and all(map(check, v))


# Each field type that a config key may have: the parser of its config
# text, and the check of its manifest (JSON) value, where an int is a
# float too but a bool is no number.
_TYPES = {
    int: (int, _is_int),
    float: (float, _is_real),
    str: (str, lambda v: isinstance(v, str)),
    bool: (_parse_bool, lambda v: isinstance(v, bool)),
    int | None: (lambda t: int(t) if t.strip() else None, lambda v: v is None or _is_int(v)),
    tuple[int, int]: (lambda t: _parse_pair(t, int), _is_pair(_is_int)),
    tuple[float, float]: (lambda t: _parse_pair(t, float), _is_pair(_is_real)),
    tuple[tuple[float, float], ...]: (
        _parse_curve,
        lambda v: isinstance(v, list | tuple) and all(map(_is_pair(_is_real), v)),
    ),
}


def _field_parsers(cls) -> dict:
    """Key -> parser of each field of ``cls`` that is a config key, in
    field order; a field of a type without a parser fails at import."""
    hints = typing.get_type_hints(cls)
    keys = [f.name for f in dataclasses.fields(cls) if f.name not in _NOT_KEYS]
    unparsed = [key for key in keys if hints[key] not in _TYPES]
    if unparsed:
        raise TypeError(f"{cls.__name__} fields {unparsed} have no config parser")
    return {key: _TYPES[hints[key]][0] for key in keys}


PARSERS = {
    **{section: _field_parsers(cls) for section, cls in SECTIONS.items()},
    "split": {"fraction": float},
    "tile": {"tile": float, "stride": float},
    "errors": {"fg_iou": float, "bg_iou": float},
    "run": {"seed": int},
}

# Manifest keys of fields that were removed without changing any output.
# Manifests written while the oracle had an upscale path carry
# ``upscale_relief``; infer never upscaled the oracle. No flag or config
# key ever set the detector's ``emit_floor`` and ``bg_tau``, so manifests
# carry the values of ``detect.EMIT_FLOOR`` and ``detect.BG_TAU``.
_DROPPED = {"oracle": {"upscale_relief"}, "detector": {"emit_floor", "bg_tau"}}


def _typed(section: str, texts: dict[str, str]) -> dict:
    if section not in PARSERS:
        raise ConfigError(f"unknown config section [{section}]")
    parsers = PARSERS[section]
    values: dict = {}
    for key, text in texts.items():
        if key not in parsers:
            hint = "; the root seed is [run] seed" if key == "seed" else ""
            raise ConfigError(f"unknown key {key!r} in config section [{section}]{hint}")
        try:
            values[key] = parsers[key](text)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc
    return values


def _fields(cls) -> dict[str, dataclasses.Field]:
    return {f.name: f for f in dataclasses.fields(cls)}


def _nested_sections(sections) -> set[str]:
    return {
        _NESTED[name]
        for section in sections
        if section in SECTIONS
        for name in _fields(SECTIONS[section])
        if name in _NESTED and _NESTED[name] in sections
    }


def param_keys(sections) -> set[str]:
    """Top-level params keys the given sections produce: each flat key,
    and the name of each dataclass section that no other one nests."""
    nested = _nested_sections(sections)
    keys: set[str] = set()
    for section in sections:
        if section not in SECTIONS:
            keys |= set(PARSERS[section])
        elif section not in nested:
            keys.add(section)
    return keys


def build_params(sections: dict[str, dict], seed: int | None) -> dict:
    """Params entries for resolved section values (see :func:`param_keys`).
    Nested sections (crops, upscale) are built into the sections that hold
    them; a ``seed`` field takes the root seed."""
    nested = _nested_sections(sections)
    built: dict = {}
    params: dict = {}
    for section in sorted(sections, key=lambda s: s not in nested):
        if section not in SECTIONS:
            params.update(sections[section])
            continue
        fields = _fields(SECTIONS[section])
        values = dict(sections[section])
        for name in fields.keys() & _NESTED.keys():
            if _NESTED[name] in built:
                values[name] = built[_NESTED[name]]
        if seed is not None and "seed" in fields:
            values["seed"] = seed
        missing = [
            name for name, f in fields.items()
            if name not in values
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ConfigError(f"{section} config is missing {sorted(missing)}")
        built[section] = SECTIONS[section](**values)
    params.update({s: dataclasses.asdict(obj) for s, obj in built.items() if s not in nested})
    return params


# ---------------------------------------------------------------------------
# Manifest round-tripping
# ---------------------------------------------------------------------------


def _tupled(value):
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def _manifest_type_ok(hint, value) -> bool:
    """Whether a manifest value fits a field of type ``hint``: a nested
    section is a dict, or None where the field allows it."""
    if hint in _TYPES:
        return _TYPES[hint][1](value)
    return isinstance(value, dict) or (value is None and type(None) in typing.get_args(hint))


def from_dict(section: str, data: dict):
    """The section's dataclass rebuilt from its manifest dict. Unknown and
    missing keys are a DataError: a manifest records every field, so a
    missing one would otherwise be replaced by today's default without
    notice. So is a value of the wrong type for its field, such as a
    string, or a bool where a number is declared; a JSON int passes where
    a float is."""
    cls = SECTIONS[section]
    data = {k: v for k, v in data.items() if k not in _DROPPED.get(section, ())}
    fields = _fields(cls)
    unknown, missing = sorted(set(data) - set(fields)), sorted(set(fields) - set(data))
    if unknown:
        raise DataError(f"manifest {cls.__name__} parameters have unknown keys {unknown}")
    if missing:
        raise DataError(f"manifest {cls.__name__} parameters are missing keys {missing}")
    hints = typing.get_type_hints(cls)
    for name, value in data.items():
        hint = hints[name]
        if not _manifest_type_ok(hint, value):
            raise DataError(
                f"manifest {cls.__name__} parameter {name} = {value!r} is not "
                f"of type {hint if typing.get_origin(hint) else hint.__name__}"
            )
    values = {k: _tupled(v) for k, v in data.items()}
    for name in fields.keys() & _NESTED.keys():
        if values[name] is not None:
            values[name] = from_dict(_NESTED[name], values[name])
    return cls(**values)
