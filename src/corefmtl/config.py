"""Run configuration: a small INI dialect with strict key checking.

Sections and keys mirror the training and model dataclasses, and
load_config builds a TrainConfig from them, so a config file runs the same
value checks as the Python API. Unknown sections or keys are rejected
rather than ignored so typos cannot silently change an experiment. One
check is load_config's alone: encoder.vocab_size or encoder.window set
next to encoder.features, which the features encoder never reads. A
dataclass cannot tell a value that was set from a default, so the Python
API takes both and render_config leaves them out.
"""

import configparser
import io
from dataclasses import fields

from .encoder import EncoderConfig
from .model import ModelStructure
from .mtl import PRESET_WEIGHTS, TaskWeights
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _parsers(cls, exclude=()) -> dict:
    """Field name -> the type that parses its INI text, in field order."""
    return {f.name: f.type for f in fields(cls) if f.name not in exclude}


_MODEL = _parsers(ModelStructure, exclude=("encoder",))

# encoder keys that a features encoder never reads
_TOY_ONLY = ("vocab_size", "window")

_SCHEMA = {
    "encoder": _parsers(EncoderConfig),
    "model": _MODEL,
    "weights": _parsers(TaskWeights),
    "training": _parsers(TrainConfig,
                         exclude=("encoder", "task_weights", *_MODEL)),
}


def load_config(path=None, preset: str | None = None,
                overrides: dict | None = None) -> TrainConfig:
    """Defaults, then preset weights, then the file, then explicit overrides.

    overrides maps "section.key" strings to unparsed values.
    """
    values = {section: {} for section in _SCHEMA}
    if preset is not None:
        if preset not in PRESET_WEIGHTS:
            raise ConfigError(f"unknown preset {preset!r}; choose from "
                              + ", ".join(sorted(PRESET_WEIGHTS)))
        values["weights"].update(PRESET_WEIGHTS[preset].as_dict())
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None, strict=True)
        parser.optionxform = str
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                _apply(values, section, key, raw, where=str(path))
    for dotted, raw in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must look like section.key")
        section, key = dotted.split(".", 1)
        _apply(values, section, key, raw, where="override")
    if values["encoder"].get("features"):
        for key in _TOY_ONLY:
            if key in values["encoder"]:
                raise ConfigError(f"encoder.{key} is read only by the toy encoder; "
                                  "leave it out when encoder.features is set")
    try:
        return TrainConfig(encoder=EncoderConfig(**values["encoder"]),
                           task_weights=TaskWeights(**values["weights"]),
                           **values["model"], **values["training"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _apply(values: dict, section: str, key: str, raw, where: str):
    schema = _SCHEMA.get(section)
    if schema is None:
        raise ConfigError(f"{where}: unknown section [{section}]")
    if key not in schema:
        raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")
    parse = schema[key]
    try:
        value = parse(raw) if isinstance(raw, str) else raw
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {section}.{key}: {exc}") from None
    values[section][key] = value


def render_config(cfg: TrainConfig) -> str:
    sources = {"encoder": cfg.encoder, "model": cfg,
               "weights": cfg.task_weights, "training": cfg}
    out = io.StringIO()
    unread = {("encoder", key) for key in _TOY_ONLY} if cfg.encoder.features else set()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            if (section, key) not in unread:
                out.write(f"{key} = {getattr(sources[section], key)}\n")
        out.write("\n")
    return out.getvalue()
