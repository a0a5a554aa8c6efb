"""Synthetic regime-switching series for controlled experiments.

Each regime has its own level, optional seasonality, and residual noise
scale. Segments of configurable length cycle through the regimes, so the
generated stream contains co-existing, recurring error regimes whose
identity is visible in the raw value window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rarecp.data import TimeSeries
from rarecp.errors import DataError
from rarecp.validation import check_count, check_fields, check_int


@dataclass(frozen=True)
class RegimeSpec:
    level: float
    noise_scale: float
    amplitude: float = 0.0
    period: int = 24

    def __post_init__(self):
        check_fields(self)
        if self.noise_scale < 0.0:
            raise DataError("regime noise_scale must be >= 0")
        if self.period < 1:
            raise DataError("regime period must be >= 1")


@dataclass(frozen=True)
class RegimeSeriesConfig:
    regimes: tuple[RegimeSpec, ...]
    segment_lengths: tuple[int, ...]
    segment_regimes: tuple[int, ...] | None = None
    name: str = "synthetic"

    def __post_init__(self):
        try:
            specs, lengths = tuple(self.regimes), tuple(self.segment_lengths)
        except TypeError:
            raise DataError("regimes and segment_lengths must be sequences") from None
        if not specs or not all(isinstance(r, RegimeSpec) for r in specs):
            raise DataError("need at least one regime, each a RegimeSpec")
        if not lengths:
            raise DataError("need at least one segment")
        lengths = tuple(check_count(n, "segment length") for n in lengths)
        object.__setattr__(self, "regimes", specs)
        object.__setattr__(self, "segment_lengths", lengths)
        regimes = self.resolved_segment_regimes()
        if any(not 0 <= j < len(self.regimes) for j in regimes):
            raise DataError("segment regime index out of range")

    def resolved_segment_regimes(self) -> tuple[int, ...]:
        """Explicit regimes per segment; defaults to cycling 0, 1, 2, ..."""
        if self.segment_regimes is not None:
            if len(self.segment_regimes) != len(self.segment_lengths):
                raise DataError("segment_regimes must match segment_lengths")
            return tuple(check_int(j, "segment regime") for j in self.segment_regimes)
        m = len(self.regimes)
        return tuple(i % m for i in range(len(self.segment_lengths)))

    @property
    def total_length(self) -> int:
        return int(sum(self.segment_lengths))


def regime_labels(config: RegimeSeriesConfig) -> np.ndarray:
    labels = np.empty(config.total_length, dtype=np.int64)
    pos = 0
    for length, regime in zip(config.segment_lengths, config.resolved_segment_regimes()):
        labels[pos : pos + length] = regime
        pos += length
    return labels


def clean_component(config: RegimeSeriesConfig) -> np.ndarray:
    """Noise-free part of the series: per-regime level plus seasonality.

    Seasonal phase uses the absolute time index so the clean component is
    a pure function of the config. This doubles as an exact precomputed
    forecast for experiments.
    """
    labels = regime_labels(config)
    t = np.arange(config.total_length, dtype=np.float64)
    values = np.empty(config.total_length)
    for j, regime in enumerate(config.regimes):
        mask = labels == j
        values[mask] = regime.level + regime.amplitude * np.sin(
            2.0 * np.pi * t[mask] / regime.period
        )
    return values


def synth_regime_series(
    config: RegimeSeriesConfig, seed: int = 0
) -> tuple[TimeSeries, np.ndarray]:
    """Generate the series and aligned regime labels, bit-reproducibly per seed."""
    labels = regime_labels(config)
    clean = clean_component(config)
    if check_int(seed, "seed") < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(int(seed))
    noise = rng.standard_normal(config.total_length)
    scales = np.array([r.noise_scale for r in config.regimes])[labels]
    values = clean + scales * noise
    return TimeSeries(values=values, name=config.name), labels


def two_regime_config(
    block_length: int = 500,
    n_blocks: int = 8,
    levels: tuple[float, float] = (0.0, 20.0),
    noise_scales: tuple[float, float] = (1.0, 5.0),
    amplitude: float = 0.0,
    period: int = 24,
) -> RegimeSeriesConfig:
    """Alternating two-regime stream used throughout the evaluation harness."""
    regimes = (
        RegimeSpec(level=levels[0], noise_scale=noise_scales[0], amplitude=amplitude, period=period),
        RegimeSpec(level=levels[1], noise_scale=noise_scales[1], amplitude=amplitude, period=period),
    )
    return RegimeSeriesConfig(
        regimes=regimes,
        segment_lengths=tuple([block_length] * n_blocks),
    )
