"""Flat key=value run configuration shared by the CLI commands.

Every default in this table is overridable from a config file; the
environment variable ``RARECP_SEED`` overrides the configured seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from rarecp.errors import DataError

SEED_ENV_VAR = "RARECP_SEED"


@dataclass
class RunConfig:
    # data
    series_csv: str = ""
    target_column: str = "y"
    forecast: str = "naive"  # naive | seasonal:<period> | file
    forecast_csv: str = ""
    train_frac: float = 0.60
    cal_frac: float = 0.15
    test_frac: float = 0.25
    window: int = 64
    include_forecast: bool = True
    normalize_contexts: bool = True
    capacity: int = 0  # 0 means "size of the calibration split"
    dataset_id: int = 0
    # data-efficient protocol reuses the calibration split for learning and
    # for conformal residuals; strict_split learns on the first half only
    # and leaves the second half as untouched residuals
    strict_split: bool = False

    # model
    n_experts: int = 3
    top_k: int = 32
    beta: float = 12.0
    latent_dim: int = 32
    hidden_dim: int = 96
    hidden_layers: int = 2
    activation: str = "tanh"
    encoder_kind: str = "hypernetwork"
    gate_hidden_dim: int = 4

    # training
    lambda_anchor: float = 5.0
    lambda_entropy: float = 0.02
    student_lr: float = 1e-3
    gate_lr: float = 4e-3
    teacher_lr: float = 1e-3
    epochs: int = 100
    teacher_epochs: int = 20
    batch_size: int = 256
    tau_start: float = 0.05
    tau_end: float = 1e-4
    tau_p: float = 5e-4
    n_cycles: int = 4

    # evaluation
    alpha: float = 0.2
    aci_gamma: float = 0.01
    aci_alpha_min: float = 0.01
    aci_alpha_max: float = 0.99
    nexcp_lambda: float = 0.99

    # synthetic generation
    synth_block_length: int = 500
    synth_blocks: int = 8
    synth_level_low: float = 0.0
    synth_level_high: float = 20.0
    synth_sigma_low: float = 1.0
    synth_sigma_high: float = 5.0
    synth_amplitude: float = 0.0
    synth_period: int = 24

    seed: int = 0

    def apply_env(self) -> "RunConfig":
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is not None:
            try:
                self.seed = int(raw)
            except ValueError:
                raise DataError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
        return self


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
