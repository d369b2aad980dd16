"""Flat `key = value` run configuration with documented defaults.

Lines are `key = value`; `#` starts a comment. Unknown and repeated keys are
rejected with the offending line numbers. The single flat namespace feeds
every stage (graph construction, pipeline, training, synthesis, metrics,
I/O); its stage keys, types and defaults are the fields of the stage config
classes.
"""

import typing
from dataclasses import field, fields, make_dataclass
from enum import Enum
from typing import Optional

from .compat import CompatConfig
from .errors import ConfigError
from .metrics import MetricThresholds
from .pipeline import PipelineConfig
from .train import SynthConfig, TrainConfig

# nms_radius unset means sigma_d (see pipeline_config)
_OVERRIDES = {"nms_radius": (Optional[float], None)}

# the file's key order: (key, type, default) for keys no stage declares, and
# the stage config classes; a field several stages declare is one key
_LAYOUT = (
    ("seed", int, 0), ("channels", int, 32),
    CompatConfig, PipelineConfig, TrainConfig,
    ("n_scenes", int, 16),
    SynthConfig, MetricThresholds,
)


def _flat_fields():
    keys = {}
    for item in _LAYOUT:
        if isinstance(item, tuple):
            keys[item[0]] = item[1:]
            continue
        hints = typing.get_type_hints(item)
        for f in fields(item):
            keys.setdefault(f.name, _OVERRIDES.get(f.name, (hints[f.name], f.default)))
    return [(key, tp, field(default=default)) for key, (tp, default) in keys.items()]


def _stage_kwargs(cfg, cls) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cls)}


def _converter(cls):
    def convert(self):
        return cls(**_stage_kwargs(self, cls))
    return convert


def _pipeline_config(self) -> PipelineConfig:
    """The PipelineConfig these keys describe; nms_radius defaults to sigma_d."""
    kwargs = _stage_kwargs(self, PipelineConfig)
    if kwargs["nms_radius"] is None:
        kwargs["nms_radius"] = self.sigma_d
    return PipelineConfig(**kwargs)


RunConfig = make_dataclass("RunConfig", _flat_fields(), namespace={
    "compat_config": _converter(CompatConfig),
    "pipeline_config": _pipeline_config,
    "train_config": _converter(TrainConfig),
    "synth_config": _converter(SynthConfig),
    "thresholds": _converter(MetricThresholds),
})
RunConfig.__module__ = __name__  # so pickle finds the class

_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str, line_no: int):
    """Parse by the key's type: `none` sets an Optional key to None, and an
    Enum key accepts only its members' values."""
    target_type = _TYPES[key]
    args = typing.get_args(target_type)
    if type(None) in args:
        if raw.lower() == "none":
            return None
        target_type = args[0]
    try:
        return target_type(raw)
    except ValueError as err:
        raise ConfigError(f"line {line_no}: bad value for '{key}': {raw!r}") from err


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig; unknown and repeated keys
    are errors."""
    cfg = RunConfig()
    seen = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _TYPES:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"line {line_no}: '{key}' is already set on line {seen[key]}")
        seen[key] = line_no
        setattr(cfg, key, _parse_value(key, raw, line_no))
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r") as f:
        return parse_config(f.read())


def default_config_text() -> str:
    """The full key set with defaults, suitable as a documented template."""
    lines = ["# hgct run configuration (key = value, '#' for comments)"]
    for f in fields(RunConfig):
        value = f.default.value if isinstance(f.default, Enum) else f.default
        lines.append(f"{f.name} = {'none' if value is None else value}")
    return "\n".join(lines) + "\n"
