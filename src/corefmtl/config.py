"""Run configuration: a small INI dialect with strict key checking.

Sections and keys mirror the training and model dataclasses; unknown
sections or keys are rejected rather than ignored so typos cannot
silently change an experiment.
"""

import configparser
import io
from dataclasses import dataclass, field, fields

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

_SCHEMA = {
    "encoder": _parsers(EncoderConfig),
    "model": _MODEL,
    "weights": _parsers(TaskWeights),
    "training": _parsers(TrainConfig,
                         exclude=("encoder", "task_weights", *_MODEL)),
}


@dataclass
class RunConfig:
    encoder: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)

    def section(self, name: str) -> dict:
        return getattr(self, name)

    def train_config(self) -> TrainConfig:
        enc = EncoderConfig(**self.encoder)
        weights = TaskWeights(**self.weights)
        try:
            return TrainConfig(encoder=enc, task_weights=weights,
                               **self.model, **self.training)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None


def config_from_train_config(train: TrainConfig) -> RunConfig:
    sources = {"encoder": train.encoder, "model": train,
               "weights": train.task_weights, "training": train}
    return RunConfig(**{section: {key: getattr(sources[section], key)
                                  for key in keys}
                        for section, keys in _SCHEMA.items()})


def load_config(path=None, preset: str | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Defaults, then preset weights, then the file, then explicit overrides.

    overrides maps "section.key" strings to unparsed values.
    """
    cfg = config_from_train_config(TrainConfig())
    if preset is not None:
        if preset not in PRESET_WEIGHTS:
            raise ConfigError(f"unknown preset {preset!r}; choose from "
                              + ", ".join(sorted(PRESET_WEIGHTS)))
        cfg.weights = dict(PRESET_WEIGHTS[preset].as_dict())
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None, strict=True)
        parser.optionxform = str
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                _apply(cfg, section, key, raw, where=str(path))
    for dotted, raw in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must look like section.key")
        section, key = dotted.split(".", 1)
        _apply(cfg, section, key, raw, where="override")
    _validate(cfg)
    return cfg


def _apply(cfg: RunConfig, section: str, key: str, raw, where: str):
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
    cfg.section(section)[key] = value


def _validate(cfg: RunConfig):
    if cfg.training["select"] not in ("best", "final"):
        raise ConfigError("training.select must be 'best' or 'final'")
    if cfg.model["activation"] not in ("relu", "tanh"):
        raise ConfigError("model.activation must be 'relu' or 'tanh'")
    if not 0.0 <= cfg.model["dropout"] < 1.0:
        raise ConfigError("model.dropout must be in [0, 1)")
    try:
        cfg.train_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def render_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    for section in _SCHEMA:
        out.write(f"[{section}]\n")
        for key in _SCHEMA[section]:
            out.write(f"{key} = {cfg.section(section)[key]}\n")
        out.write("\n")
    return out.getvalue()

