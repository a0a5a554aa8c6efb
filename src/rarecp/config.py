"""Flat key=value run configuration shared by the CLI commands.

``RunConfig`` declares only the keys that no other class does. Every other
key is a field of ``ModelConfig``, ``TrainConfig`` (but ``audit``),
``SplitSpec`` or one of ``EvalConfig``'s evaluation settings, and takes its
name, type and default from there. Every default is overridable from a
config file; the environment variable ``RARECP_SEED`` overrides the
configured seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

from rarecp.data import SplitSpec
from rarecp.errors import DataError
from rarecp.harness import EvalConfig
from rarecp.training import ModelConfig, TrainConfig

SEED_ENV_VAR = "RARECP_SEED"

# the keys of ``EvalConfig`` a run configures; the rest come from the run or the command line
_EVAL_KEYS = ("alpha", "aci_gamma", "aci_alpha_min", "aci_alpha_max", "nexcp_lambda", "dataset_id")


@dataclass
class _RunKeys:
    """The keys of a ``RunConfig`` that no other settings class declares."""

    # data
    series_csv: str = ""
    target_column: str = "y"
    forecast: str = "naive"  # naive | seasonal:<period> | file
    forecast_csv: str = ""
    capacity: int = 0  # 0 means "size of the calibration split"
    # data-efficient protocol reuses the calibration split for learning and
    # for conformal residuals; strict_split learns on the first half only
    # and leaves the second half as untouched residuals
    strict_split: bool = False

    # synthetic generation
    synth_block_length: int = 500
    synth_blocks: int = 8
    synth_level_low: float = 0.0
    synth_level_high: float = 20.0
    synth_sigma_low: float = 1.0
    synth_sigma_high: float = 5.0
    synth_amplitude: float = 0.0
    synth_period: int = 24

    def apply_env(self) -> "RunConfig":
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is not None:
            try:
                self.seed = int(raw)
            except ValueError:
                raise DataError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
        return self


RunConfig = make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, field(default=f.default))
        for f in (*fields(ModelConfig), *fields(TrainConfig), *fields(SplitSpec),
                  *(e for e in fields(EvalConfig) if e.name in _EVAL_KEYS))
        if f.name != "audit"
    ],
    bases=(_RunKeys,),
    namespace={"__module__": __name__, "__doc__": "Every key of a run, with its default."},
)


def _coerce(raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if target_type is int:
        return int(raw)
    if target_type is float:
        return float(raw)
    return raw


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    values: dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataError(f"config line {line_number} is not 'key = value': {line!r}")
        key, raw = stripped.split("=", 1)
        values[key.strip()] = raw.strip()
    return values


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config file, then explicit overrides, then RARECP_SEED."""
    config = RunConfig()
    types = {f.name: type(getattr(config, f.name)) for f in fields(RunConfig)}

    def assign(key: str, raw) -> None:
        if key not in types:
            raise DataError(f"unknown config key {key!r}")
        if isinstance(raw, str):
            try:
                value = _coerce(raw, types[key])
            except ValueError as exc:
                raise DataError(f"bad value for config key {key!r}: {exc}") from None
        else:
            value = raw
        setattr(config, key, value)

    if path is not None:
        path = Path(path)
        if not path.exists():
            raise DataError(f"config file not found: {path}")
        for key, raw in parse_config_text(path.read_text(encoding="utf-8")).items():
            assign(key, raw)
    for key, raw in (overrides or {}).items():
        if raw is not None:
            assign(key, raw)
    return config.apply_env()
