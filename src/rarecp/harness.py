"""Chronological evaluation loop, metrics, consistency probe, and reports.

The loop walks the test segment one step at a time: form the interval at
the current working miscoverage level (RareCP from the query context, the
baselines from residuals alone), record the outcome, then (and only then)
reveal the target — updating the online level and pushing the new residual
(with its context, for RareCP) into the FIFO window. No parameters are
updated at test time, and nothing at time t can see data from t onwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rarecp import autodiff as ad
from rarecp.checkpoint import RareCPComponents, checkpoint_sha256, load_checkpoint
from rarecp.conformal import AciState, aci_update, winkler_score
from rarecp.data import (
    ForecastSource, SplitIndices, SplitSpec, TimeSeries, build_context, chronological_split,
)
from rarecp.errors import DataError, NumericError
from rarecp.estimators import RareCP, SplitConformal
from rarecp.validation import check_count, check_finite, check_unit_interval

METHODS = ("uniform", "aci_uniform", "nexcp", "rarecp_checkpoint")


@dataclass(frozen=True)
class EvalRecord:
    time_index: int
    forecast: float
    lower: float
    upper: float
    y: float
    covered: bool
    winkler: float
    alpha_used: float
    method: str


@dataclass(frozen=True)
class MetricsSummary:
    method: str
    n_points: int
    mean_winkler: float
    nwink: float
    mean_width: float
    nw: float
    coverage: float
    std_y: float


@dataclass(frozen=True)
class EvalConfig:
    """Settings of a chronological evaluation, checked when it is made and then fixed.

    ``window``, ``include_forecast``, ``checkpoint`` and ``dataset_id``
    apply only to ``rarecp_checkpoint``; the baselines read residuals alone.
    """

    alpha: float = 0.2
    aci_gamma: float = 0.01
    aci_alpha_min: float = 0.01
    aci_alpha_max: float = 0.99
    window: int = 64
    include_forecast: bool = True
    capacity: int | None = None
    nexcp_lambda: float = 0.99
    checkpoint: str | Path | RareCPComponents | None = None
    dataset_id: int = 0

    def __post_init__(self):
        fix = object.__setattr__  # keeps the checked value in the frozen instance
        fix(self, "window", check_count(self.window, "window"))
        if self.capacity is not None:
            fix(self, "capacity", check_count(self.capacity, "capacity"))
        fix(self, "alpha", check_unit_interval(self.alpha, "alpha"))
        for name in ("aci_gamma", "aci_alpha_min", "aci_alpha_max", "nexcp_lambda"):
            fix(self, name, check_finite(getattr(self, name), name))
        if not (0.0 < self.aci_alpha_min < self.aci_alpha_max < 1.0 and self.aci_gamma >= 0.0):
            raise DataError("require 0 < aci_alpha_min < aci_alpha_max < 1 and aci_gamma >= 0")
        if not 0.0 < self.nexcp_lambda <= 1.0:
            raise DataError(f"nexcp_lambda must lie in (0, 1], got {self.nexcp_lambda}")


def calibration_forecasts(
    series: TimeSeries, indices, source: ForecastSource
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forecasts (n,), residuals (n,) and time indices (n,) for the given time indices.

    The source is asked once per index, in order, with the values before it.
    """
    values, times = series.values, np.asarray(indices, dtype=np.int64)
    if times.size and times.min() < 1:
        raise DataError("calibration needs at least one past value per index")
    forecasts = np.array([source.point_forecast(values[:i], i) for i in times.tolist()], float)
    return forecasts, values[times] - forecasts, times


def calibration_block(
    series: TimeSeries,
    indices,
    source: ForecastSource,
    window: int,
    include_forecast: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contexts (n, p), residuals (n,) and time indices (n,) for the given time indices.

    Row ``j`` equals ``build_context(values[:i], forecast, ...)`` for ``i =
    indices[j]``, with the forecasts of ``calibration_forecasts``.
    """
    check_count(window, "window")
    forecasts, residuals, times = calibration_forecasts(series, indices, source)
    padded = np.concatenate([np.full(window, series.values[0]), series.values])
    contexts = sliding_window_view(padded, window)[times]
    if include_forecast:
        contexts = np.column_stack([contexts, forecasts])
    if not np.all(np.isfinite(contexts)):
        raise DataError("context contains non-finite values")
    return contexts, residuals, times


def run_chronological_eval(
    series: TimeSeries,
    split: SplitSpec | SplitIndices,
    source: ForecastSource,
    method: str,
    cfg: EvalConfig | None = None,
) -> list[EvalRecord]:
    """One-pass chronological evaluation of a single method.

    The calibration window is seeded from the calibration split's most
    recent entries; each test step inserts exactly one new entry after its
    target is observed. ``rarecp_checkpoint`` serves the checkpoint's
    ``RareCP`` on query contexts; the baselines serve a ``SplitConformal`` on
    residuals alone. ACI runs here only, for ``aci_uniform`` and
    ``rarecp_checkpoint``; ``uniform`` and ``nexcp`` run at fixed alpha.
    """
    cfg = cfg or EvalConfig()
    method = "rarecp_checkpoint" if method == "rarecp" else method
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {METHODS}")

    window, include_forecast = cfg.window, cfg.include_forecast
    rarecp = method == "rarecp_checkpoint"
    indices = split if isinstance(split, SplitIndices) else chronological_split(len(series), split)
    if rarecp:
        if cfg.checkpoint is None:
            raise DataError("method rarecp_checkpoint requires a checkpoint")
        components = cfg.checkpoint
        if not isinstance(components, RareCPComponents):
            components = load_checkpoint(components)
        est = RareCP.from_components(components, cfg.dataset_id)
        if (est.window, est.include_forecast) != (window, include_forecast):
            raise DataError(
                "checkpoint context settings (window="
                f"{est.window}, include_forecast={est.include_forecast}) do not "
                f"match eval config (window={window}, include_forecast={include_forecast})"
            )
        contexts, residuals, _ = calibration_block(series, indices.cal, source, window,
                                                   include_forecast)
        # the store is conditioned on the descriptor of THIS run's seeded
        # window, which then stays frozen for the whole pass
        est.set_params(capacity=cfg.capacity)
        est.seed_store(contexts, residuals, start_time=indices.cal.start)
    else:
        _, residuals, _ = calibration_forecasts(series, indices.cal, source)
        weighting = "nexcp" if method == "nexcp" else "uniform"
        est = SplitConformal(alpha=cfg.alpha, weighting=weighting, nexcp_lambda=cfg.nexcp_lambda,
                             capacity=cfg.capacity).fit(None, residuals)

    aci = None  # the online level, for aci_uniform and rarecp_checkpoint only
    if method in ("aci_uniform", "rarecp_checkpoint"):
        aci = AciState.initial(cfg.alpha, cfg.aci_gamma, cfg.aci_alpha_min, cfg.aci_alpha_max)

    values = series.values
    records: list[EvalRecord] = []
    for t in indices.test:
        history = values[:t]
        forecast = source.point_forecast(history, t)
        # RareCP reads the query context first; the baselines take no context
        x = (build_context(history, forecast, window, include_forecast),) if rarecp else ()
        alpha_t = aci.alpha_t if aci is not None else cfg.alpha
        interval = est.predict_interval(*x, forecast, alpha_t)
        y = float(values[t])
        covered = interval.covers(y)
        winkler = winkler_score(interval.lower, interval.upper, y, alpha_t)
        records.append(EvalRecord(int(t), float(forecast), interval.lower, interval.upper, y,
                                  covered, winkler, alpha_t, method))
        if aci is not None:
            aci = aci_update(aci, covered)
        est.observe(*x, y - forecast, time_index=int(t))
    return records


def eval_split_std(series: TimeSeries, split: SplitSpec | SplitIndices) -> float:
    """Dataset-level normalizer: population std of the test-segment targets."""
    indices = split if isinstance(split, SplitIndices) else chronological_split(len(series), split)
    return float(np.std(series.values[list(indices.test)]))


def compute_metrics(records: list[EvalRecord], std_y: float) -> MetricsSummary:
    """Mean Winkler / width (both normalized by std_y) and empirical coverage."""
    if not records:
        raise DataError("cannot summarize zero evaluation records")
    if not std_y > 0.0:
        raise NumericError("degenerate evaluation split: std(y) must be positive")
    winklers = np.array([r.winkler for r in records])
    widths = np.array([r.upper - r.lower for r in records])
    covered = np.array([r.covered for r in records], dtype=np.float64)
    return MetricsSummary(
        method=records[0].method,
        n_points=len(records),
        mean_winkler=float(winklers.mean()),
        nwink=float(winklers.mean() / std_y),
        mean_width=float(widths.mean()),
        nw=float(widths.mean() / std_y),
        coverage=float(covered.mean()),
        std_y=float(std_y),
    )


# ---------------------------------------------------------------------------
# retrieval-CDF consistency probe
# ---------------------------------------------------------------------------


def _standard_normal_cdf(grid: np.ndarray) -> np.ndarray:
    return np.array([0.5 * (1.0 + math.erf(g / math.sqrt(2.0))) for g in grid])


def _weighted_cdf_on_grid(
    residuals: np.ndarray, weights: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    order = np.argsort(residuals, kind="stable")
    sorted_res = residuals[order]
    cum = np.cumsum(weights[order])
    pos = np.searchsorted(sorted_res, grid, side="right")
    out = np.zeros(grid.size)
    nz = pos > 0
    out[nz] = cum[pos[nz] - 1]
    return out


def topk_consistency_probe(
    n: int = 10_000,
    k_values=(4, 16, 64, 256),
    n_queries: int = 200,
    context_dim: int = 8,
    seed: int = 0,
    weight_mode: str = "uniform",
    beta: float = 12.0,
    grid_points: int = 801,
) -> list[tuple[int, float]]:
    """Sup-norm distance between retrieved residual CDFs and the true law.

    Contexts are i.i.d. standard normal vectors and residuals are i.i.d.
    standard normal, independent of the contexts, so the true conditional
    residual CDF is the standard normal CDF for every query. Retrieval is
    cosine top-k on the raw (normalized) contexts. For each k the probe
    reports the sup distance over a fixed residual grid, averaged over
    fresh query contexts.
    """
    if weight_mode not in ("uniform", "softmax"):
        raise DataError("weight_mode must be 'uniform' or 'softmax'")
    counts = dict(n=n, n_queries=n_queries, grid_points=grid_points, context_dim=context_dim)
    n, n_queries, grid_points, context_dim = (check_count(v, k) for k, v in counts.items())
    k_values = [check_count(k, "k") for k in k_values]
    rng = np.random.default_rng(seed)
    contexts = rng.standard_normal((n, context_dim))
    residuals = rng.standard_normal(n)
    queries = rng.standard_normal((n_queries, context_dim))

    keys = contexts / np.sqrt((contexts**2).sum(axis=1, keepdims=True) + 1e-12)
    grid = np.linspace(-4.0, 4.0, grid_points)
    truth = _standard_normal_cdf(grid)

    rows: list[tuple[int, float]] = []
    for k in k_values:
        k = min(int(k), n)
        deltas = np.empty(n_queries)
        for qi in range(n_queries):
            q = queries[qi]
            q = q / np.sqrt(float(q @ q) + 1e-12)
            scores = keys @ q
            sel = ad.topk_rows(scores[None], k)[0]
            if weight_mode == "uniform":
                weights = np.full(k, 1.0 / k)
            else:  # an expert's support weights at temperature 1 / beta
                weights = ad.softmax(scores[sel][None], 1.0 / beta)[0]
            cdf = _weighted_cdf_on_grid(residuals[sel], weights, grid)
            deltas[qi] = np.abs(cdf - truth).max()
        rows.append((k, float(deltas.mean())))
    return rows


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip, also for numpy scalars
    return str(value)


def emit_report(
    summaries: list[MetricsSummary],
    records: dict[str, list[EvalRecord]],
    out_dir,
    manifest: dict | None = None,
) -> dict[str, Path]:
    """Write summary.csv, records.csv and manifest.json under ``out_dir``.

    Output is plot-ready and byte-deterministic: floats use shortest
    round-trip formatting and rows follow method then time order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary_path = out / "summary.csv"
    lines = ["method,n_points,mean_winkler,nwink,mean_width,nw,coverage,std_y"]
    for s in summaries:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    s.method,
                    s.n_points,
                    s.mean_winkler,
                    s.nwink,
                    s.mean_width,
                    s.nw,
                    s.coverage,
                    s.std_y,
                )
            )
        )
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    records_path = out / "records.csv"
    lines = ["method,time_index,forecast,lower,upper,y,covered,winkler,alpha_used"]
    for method in sorted(records):
        for r in records[method]:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        r.method,
                        r.time_index,
                        r.forecast,
                        r.lower,
                        r.upper,
                        r.y,
                        r.covered,
                        r.winkler,
                        r.alpha_used,
                    )
                )
            )
    records_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    manifest_path = out / "manifest.json"
    payload = dict(manifest or {})
    if "checkpoint" in payload and payload["checkpoint"] is not None:
        ckpt = Path(payload["checkpoint"])
        if ckpt.exists():
            payload["checkpoint_sha256"] = checkpoint_sha256(ckpt)
        payload["checkpoint"] = str(payload["checkpoint"])
    manifest_path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return {"summary": summary_path, "records": records_path, "manifest": manifest_path}
