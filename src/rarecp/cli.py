"""Command-line interface: synth, train, eval, gradcheck, probe-topk.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from rarecp import gradcheck as gradcheck_suite
from rarecp.config import RunConfig, load_config
from rarecp.data import (
    SplitSpec,
    TimeSeries,
    chronological_split,
    load_series_csv,
    make_forecast_source,
)
from rarecp.errors import DataError, NumericError, RareCPError
from rarecp.estimators import RareCP
from rarecp.harness import (
    EvalConfig,
    compute_metrics,
    emit_report,
    eval_split_std,
    run_chronological_eval,
    topk_consistency_probe,
    calibration_block,
)
from rarecp.synthetic import clean_component, synth_regime_series, two_regime_config
from rarecp.training import blas_threads, write_training_log


@click.group()
def cli():
    """Regime-aware retrieval conformal prediction."""


def _run_config(config_path, seed) -> RunConfig:
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    return load_config(config_path, overrides)


def _load_series(cfg: RunConfig) -> TimeSeries:
    if not cfg.series_csv:
        raise click.UsageError("series_csv must be set (config key or --series)")
    return load_series_csv(cfg.series_csv, cfg.target_column)


def _forecast_source(cfg: RunConfig):
    return make_forecast_source(cfg.forecast, cfg.forecast_csv or None)


def _split_spec(cfg: RunConfig) -> SplitSpec:
    return SplitSpec(cfg.train_frac, cfg.cal_frac, cfg.test_frac)


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write ``lines`` to ``path``, one per line; an OS failure raises ``DataError``."""
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


@cli.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
def synth(config_path, out_dir, seed):
    """Generate a two-regime synthetic dataset (series + exact forecasts)."""
    cfg = _run_config(config_path, seed)
    synth_config = two_regime_config(
        block_length=cfg.synth_block_length,
        n_blocks=cfg.synth_blocks,
        levels=(cfg.synth_level_low, cfg.synth_level_high),
        noise_scales=(cfg.synth_sigma_low, cfg.synth_sigma_high),
        amplitude=cfg.synth_amplitude,
        period=cfg.synth_period,
    )
    series, labels = synth_regime_series(synth_config, seed=cfg.seed)
    clean = clean_component(synth_config)

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    series_lines = ["y,regime"]
    series_lines += [f"{float(v)!r},{int(l)}" for v, l in zip(series.values, labels)]
    _write_lines(out / "series.csv", series_lines)
    forecast_lines = ["time_index,forecast"]
    forecast_lines += [f"{i},{float(v)!r}" for i, v in enumerate(clean)]
    _write_lines(out / "forecasts.csv", forecast_lines)
    click.echo(f"wrote {out / 'series.csv'} ({len(series)} rows) and forecasts.csv")


@cli.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--series", "series_path", type=click.Path(), default=None)
@click.option("--column", default=None)
@click.option("--out", "checkpoint_path", type=click.Path(), required=True)
@click.option("--log", "log_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None)
def train(config_path, series_path, column, checkpoint_path, log_path, seed):
    """Fit teachers, retrieval experts, and the gate on the calibration split."""
    cfg = _run_config(config_path, seed)
    if series_path:
        cfg.series_csv = series_path
    if column:
        cfg.target_column = column
    series = _load_series(cfg)
    source = _forecast_source(cfg)
    split = chronological_split(len(series), _split_spec(cfg))
    contexts, residuals, _ = calibration_block(
        series, split.cal, source, cfg.window, cfg.include_forecast
    )
    if cfg.strict_split:
        # learn on the earlier half; the later half stays a pure residual pool
        learn_count = residuals.size // 2
        if learn_count < 3:
            raise DataError("strict_split needs at least 6 calibration points")
        contexts, residuals = contexts[:learn_count], residuals[:learn_count]
    params = {name: getattr(cfg, name) for name in RareCP().get_params()}
    est = RareCP(**{**params, "capacity": cfg.capacity or None})
    est.fit(contexts, residuals, dataset_id=cfg.dataset_id)
    est.save(checkpoint_path)
    log_file = Path(log_path) if log_path else Path(checkpoint_path).with_suffix(".log.csv")
    write_training_log(est.train_log_, log_file)
    click.echo(f"wrote checkpoint {checkpoint_path} and training log {log_file}")


@cli.command("eval")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--series", "series_path", type=click.Path(), default=None)
@click.option("--column", default=None)
@click.option(
    "--method",
    "methods",
    multiple=True,
    type=click.Choice(["uniform", "aci_uniform", "nexcp", "rarecp_checkpoint"]),
    required=True,
)
@click.option("--alpha", type=float, default=None)
@click.option("--aci-gamma", type=float, default=None)
@click.option("--checkpoint", "checkpoint_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
def eval_cmd(config_path, series_path, column, methods, alpha, aci_gamma,
             checkpoint_path, out_dir, seed):
    """Chronological evaluation with FIFO calibration (and ACI where enabled)."""
    cfg = _run_config(config_path, seed)
    if series_path:
        cfg.series_csv = series_path
    if column:
        cfg.target_column = column
    if alpha is not None:
        cfg.alpha = alpha
    if aci_gamma is not None:
        cfg.aci_gamma = aci_gamma
    series = _load_series(cfg)
    source = _forecast_source(cfg)
    split = chronological_split(len(series), _split_spec(cfg))
    capacity = cfg.capacity or None
    if cfg.strict_split and capacity is None:
        # seed the store only from the residual half the learner never saw
        cal_size = len(split.cal)
        capacity = cal_size - cal_size // 2
    eval_cfg = EvalConfig(
        alpha=cfg.alpha,
        aci_gamma=cfg.aci_gamma,
        aci_alpha_min=cfg.aci_alpha_min,
        aci_alpha_max=cfg.aci_alpha_max,
        window=cfg.window,
        include_forecast=cfg.include_forecast,
        capacity=capacity,
        nexcp_lambda=cfg.nexcp_lambda,
        checkpoint=checkpoint_path,
        dataset_id=cfg.dataset_id,
    )
    std_y = eval_split_std(series, split)
    summaries, all_records = [], {}
    for method in methods:
        records = run_chronological_eval(series, split, source, method, eval_cfg)
        all_records[method] = records
        summary = compute_metrics(records, std_y)
        summaries.append(summary)
        click.echo(
            f"{method}: nWink={summary.nwink:.4f} nW={summary.nw:.4f} "
            f"Cov={summary.coverage:.4f}"
        )
    paths = emit_report(
        summaries,
        all_records,
        out_dir,
        manifest={
            "alpha": cfg.alpha,
            "aci_gamma": cfg.aci_gamma,
            "seed": cfg.seed,
            "series": cfg.series_csv,
            "methods": sorted(methods),
            "checkpoint": checkpoint_path,
            "blas_threads": blas_threads(),
        },
    )
    click.echo(f"wrote {paths['summary']}, {paths['records']}, {paths['manifest']}")


@cli.command()
@click.option("--seed", type=int, default=0)
def gradcheck(seed):
    """Finite-difference verification of every primitive and training loss."""
    rows = gradcheck_suite.run_all(seed)
    failures = 0
    for name, err, tol in rows:
        status = "ok" if err < tol else "FAIL"
        if status == "FAIL":
            failures += 1
        click.echo(f"{status:4s} {name:32s} max_rel_err={err:.3e} tol={tol:.0e}")
    if failures:
        raise NumericError(f"{failures} gradient check(s) exceeded tolerance")
    click.echo("all gradient checks passed")


@cli.command("probe-topk")
@click.option("--n", type=int, default=10_000)
@click.option("--k", "k_values", multiple=True, type=int, default=(4, 16, 64, 256))
@click.option("--queries", type=int, default=200)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", type=click.Path(), default=None)
def probe_topk(n, k_values, queries, seed, out_path):
    """Sup-norm CDF consistency of top-k retrieval on i.i.d. data."""
    rows = topk_consistency_probe(
        n=n, k_values=tuple(k_values), n_queries=queries, seed=seed
    )
    lines = ["k,mean_sup_cdf_distance"]
    for k, delta in rows:
        click.echo(f"k={k:6d} mean sup-norm CDF distance={delta:.5f}")
        lines.append(f"{k},{delta!r}")
    if out_path:
        _write_lines(Path(out_path), lines)
        click.echo(f"wrote {out_path}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except RareCPError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
