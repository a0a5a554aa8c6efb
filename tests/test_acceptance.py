"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line and then asserts, so
a red criterion is still reported alongside the others. The line goes to
the unredirected stream as well, so it survives pytest's output capture.
"""

import time

import numpy as np
import pytest

from rarecp.autodiff import smooth_winkler_grid
from rarecp.cli import main as cli_main
from rarecp.config import SEED_ENV_VAR
from rarecp.conformal import (
    WeightedSupport,
    weighted_quantile,
    winkler_score,
)
from rarecp.data import (
    CalibrationStore,
    PrecomputedForecast,
    SplitIndices,
    SplitSpec,
    TimeSeries,
    chronological_split,
    compute_descriptor,
)
from rarecp.estimators import SplitConformal
from rarecp.gradcheck import expert_loss_check
from rarecp.harness import (
    EvalConfig,
    compute_metrics,
    eval_split_std,
    run_chronological_eval,
    topk_consistency_probe,
    calibration_block,
)
from rarecp.synthetic import clean_component, synth_regime_series, two_regime_config
from rarecp.training import (
    ModelConfig,
    TrainConfig,
    Trainer,
    default_alpha_grid,
)
from rarecp.checkpoint import components_from_trainer


_TERMINAL = None


@pytest.fixture(autouse=True)
def _grab_terminal(request):
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if _TERMINAL is not None:  # reaches the real terminal despite capture
        _TERMINAL.write_line(line)


# -------------------------------------------------------------------------
# 1. weighted-quantile oracle equivalence
# -------------------------------------------------------------------------


def test_criterion_1_weighted_quantile_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 24))
        residuals = rng.standard_normal(n)
        weights = rng.random(n) + 1e-3
        weights /= weights.sum()
        tau = float(rng.uniform(0.001, 0.999))
        support = WeightedSupport(residuals, weights)

        order = np.argsort(residuals, kind="stable")
        cum = 0.0
        expected = residuals[order[-1]]
        for idx in order:
            cum += weights[idx]
            if cum >= tau:
                expected = residuals[idx]
                break
        if weighted_quantile(support, tau) != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    report(1, ok, f"10^4 quantiles, {mismatches} mismatches, {elapsed:.2f}s (< 5s)")
    assert mismatches == 0
    assert elapsed < 5.0


# -------------------------------------------------------------------------
# 2. gradient fidelity of the full expert loss
# -------------------------------------------------------------------------


def test_criterion_2_gradient_fidelity():
    start = time.perf_counter()
    err = expert_loss_check(seed=0, n_episodes=16, n_experts=2, context_dim=8, h=1e-5)
    elapsed = time.perf_counter() - start
    ok = err < 1e-3 and elapsed < 60.0
    report(2, ok, f"max rel grad error {err:.2e} (< 1e-3), {elapsed:.1f}s (< 60s)")
    assert err < 1e-3
    assert elapsed < 60.0


# -------------------------------------------------------------------------
# 3. smooth -> hard convergence on 100 random supports
# -------------------------------------------------------------------------


def test_criterion_3_smooth_hard_convergence():
    # supports are drawn in general position: the sigmoid relaxation splits
    # mass at exact cumulative boundaries, so levels are kept 5e-3 away
    rng = np.random.default_rng(7)
    grid = np.asarray(default_alpha_grid())
    levels = np.concatenate([grid / 2.0, 1.0 - grid / 2.0])
    worst = 0.0
    for _ in range(100):
        while True:
            n = int(rng.integers(6, 24))
            residuals = rng.standard_normal(n)
            weights = rng.random(n) + 0.05
            weights /= weights.sum()
            cum = np.cumsum(weights[np.argsort(residuals, kind="stable")])
            if np.min(np.abs(levels[:, None] - cum[None, :])) > 5e-3:
                break
        support = WeightedSupport(residuals, weights)
        target = float(rng.standard_normal())
        order = np.argsort(residuals, kind="stable")
        smooth = float(smooth_winkler_grid(
            weights[order][None], residuals[order][None], [target], grid, 1e-4, 1e-4
        ).data[0])
        hard = np.mean(
            [
                winkler_score(
                    weighted_quantile(support, a / 2),
                    weighted_quantile(support, 1 - a / 2),
                    target,
                    a,
                )
                for a in grid
            ]
        )
        worst = max(worst, abs(smooth - hard))
    ok = worst < 1e-3
    report(3, ok, f"max |smooth - hard| over 100 supports = {worst:.2e} (< 1e-3)")
    assert worst < 1e-3


# -------------------------------------------------------------------------
# 4. split-conformal coverage on i.i.d. residuals
# -------------------------------------------------------------------------


def test_criterion_4_split_conformal_coverage():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n_train, n_cal, n_test = 200, 1000, 10_000
    n = n_train + n_cal + n_test
    series = TimeSeries(values=rng.standard_normal(n))
    source = PrecomputedForecast({i: 0.0 for i in range(n)})
    split = SplitIndices(
        train=range(0, n_train),
        cal=range(n_train, n_train + n_cal),
        test=range(n_train + n_cal, n),
    )
    records = run_chronological_eval(
        series, split, source, "uniform", EvalConfig(window=4, alpha=0.2)
    )
    coverage = np.mean([r.covered for r in records])
    elapsed = time.perf_counter() - start
    ok = 0.78 <= coverage <= 0.82 and elapsed < 10.0
    report(4, ok, f"uniform coverage {coverage:.4f} in [0.78, 0.82], {elapsed:.1f}s (< 10s)")
    assert 0.78 <= coverage <= 0.82
    assert elapsed < 10.0


# -------------------------------------------------------------------------
# 5. ACI long-run coverage under a variance regime shift
# -------------------------------------------------------------------------


def test_criterion_5_aci_long_run_coverage():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    n_train, n_cal, n_test = 500, 3000, 20_000
    n = n_train + n_cal + n_test
    sigma = np.ones(n)
    sigma[n_train + n_cal + n_test // 2 :] = 3.0  # variance shift at test midpoint
    series = TimeSeries(values=rng.standard_normal(n) * sigma)
    source = PrecomputedForecast({i: 0.0 for i in range(n)})
    split = SplitIndices(
        train=range(0, n_train),
        cal=range(n_train, n_train + n_cal),
        test=range(n_train + n_cal, n),
    )
    cfg = EvalConfig(window=4, alpha=0.2, aci_gamma=0.01)
    cov_aci = np.mean(
        [r.covered for r in run_chronological_eval(series, split, source, "aci_uniform", cfg)]
    )
    cov_uniform = np.mean(
        [r.covered for r in run_chronological_eval(series, split, source, "uniform", cfg)]
    )
    elapsed = time.perf_counter() - start
    aci_dev = abs(cov_aci - 0.80)
    uni_dev = abs(cov_uniform - 0.80)
    ok = aci_dev <= 0.01 and uni_dev > 0.02 and elapsed < 30.0
    report(
        5,
        ok,
        f"aci coverage {cov_aci:.4f} (dev {aci_dev:.4f} <= 0.01), "
        f"uniform {cov_uniform:.4f} (dev {uni_dev:.4f} > 0.02), {elapsed:.1f}s (< 30s)",
    )
    assert aci_dev <= 0.01
    assert uni_dev > 0.02
    assert elapsed < 30.0


# -------------------------------------------------------------------------
# 6. regime-efficiency experiment (three seeds)
# -------------------------------------------------------------------------


def _regime_experiment(seed: int):
    config = two_regime_config(
        block_length=500, n_blocks=8, levels=(0.0, 20.0), noise_scales=(1.0, 5.0)
    )
    series, labels = synth_regime_series(config, seed=seed)
    clean = clean_component(config)
    source = PrecomputedForecast({i: float(v) for i, v in enumerate(clean)})
    split = chronological_split(len(series), SplitSpec())
    contexts, residuals, _ = calibration_block(series, split.cal, source, 64, True)
    store = CalibrationStore.from_arrays(contexts, residuals)
    store.condition(compute_descriptor(store.contexts()), ModelConfig().normalize_contexts)
    trainer = Trainer([store], ModelConfig(), TrainConfig(seed=seed)).run()
    components = components_from_trainer(trainer)
    expert_rows = [r for r in trainer.log if r.stage == "expert"]
    loss_drop = 1.0 - expert_rows[-1].mean_loss / expert_rows[0].mean_loss

    cfg = EvalConfig(checkpoint=components)
    std_y = eval_split_std(series, split)
    rec_uniform = run_chronological_eval(series, split, source, "uniform", cfg)
    rec_rarecp = run_chronological_eval(series, split, source, "rarecp_checkpoint", cfg)
    m_uniform = compute_metrics(rec_uniform, std_y)
    m_rarecp = compute_metrics(rec_rarecp, std_y)
    test_labels = labels[np.asarray(list(split.test))]
    widths = np.array([r.upper - r.lower for r in rec_rarecp])
    width_ratio = widths[test_labels == 1].mean() / widths[test_labels == 0].mean()
    return {
        "improvement": 1.0 - m_rarecp.mean_winkler / m_uniform.mean_winkler,
        "coverage": m_rarecp.coverage,
        "width_ratio": width_ratio,
        "loss_drop": loss_drop,
    }


def test_criterion_6_regime_efficiency():
    start = time.perf_counter()
    seeds = (101, 202, 303)
    results = {seed: _regime_experiment(seed) for seed in seeds}
    elapsed = time.perf_counter() - start

    winkler_ok = all(r["improvement"] >= 0.10 for r in results.values())
    coverage_ok = all(abs(r["coverage"] - 0.80) <= 0.02 for r in results.values())
    ratio_ok = all(3.0 <= r["width_ratio"] <= 7.0 for r in results.values())
    curve_ok = all(r["loss_drop"] >= 0.20 for r in results.values())
    ok = winkler_ok and coverage_ok and ratio_ok and curve_ok and elapsed < 900.0
    detail = "; ".join(
        f"seed {s}: wink -{r['improvement'] * 100:.1f}%, cov {r['coverage']:.3f}, "
        f"ratio {r['width_ratio']:.2f}, train-loss -{r['loss_drop'] * 100:.0f}%"
        for s, r in results.items()
    )
    report(6, ok, f"{detail}; {elapsed:.0f}s (< 900s)")
    assert winkler_ok, f"Winkler improvement below 10%: {results}"
    assert coverage_ok, f"coverage not within 2% of target: {results}"
    assert ratio_ok, f"per-regime width ratio outside [3, 7]: {results}"
    assert curve_ok, f"training loss dropped less than 20%: {results}"
    assert elapsed < 900.0


# -------------------------------------------------------------------------
# 7. asymmetric intervals on skewed residuals
# -------------------------------------------------------------------------


def test_criterion_7_asymmetry():
    rng = np.random.default_rng(77)
    n = 5000
    residuals = rng.exponential(1.0, size=n) - 1.0  # centered Exp(1): skewed
    est = SplitConformal(alpha=0.2).fit(None, residuals)
    interval = est.predict_interval(0.0)
    true_q90 = np.log(10.0) - 1.0  # 0.9-quantile of Exp(1) - 1
    upper_rel_err = abs(interval.upper - true_q90) / true_q90
    asymmetric = abs(abs(interval.lower) - abs(interval.upper)) > 0.1
    ok = asymmetric and upper_rel_err <= 0.15
    report(
        7,
        ok,
        f"interval [{interval.lower:.3f}, {interval.upper:.3f}], "
        f"upper vs true q90 {true_q90:.4f}: rel err {upper_rel_err:.3f} (<= 0.15), "
        f"asymmetric={asymmetric}",
    )
    assert asymmetric
    assert upper_rel_err <= 0.15


# -------------------------------------------------------------------------
# 8. retrieval-CDF consistency trend in k
# -------------------------------------------------------------------------


def test_criterion_8_topk_consistency_trend():
    start = time.perf_counter()
    n = 10_000
    rows = dict(
        topk_consistency_probe(n=n, k_values=(4, 64, n), n_queries=200, seed=8)
    )
    elapsed = time.perf_counter() - start
    dkw = 3.0 / np.sqrt(n)
    ok = rows[64] < rows[4] and rows[n] < dkw and elapsed < 120.0
    report(
        8,
        ok,
        f"delta(4)={rows[4]:.4f} > delta(64)={rows[64]:.4f}; "
        f"delta(n)={rows[n]:.4f} < {dkw:.4f}; {elapsed:.0f}s (< 120s)",
    )
    assert rows[64] < rows[4]
    assert rows[n] < dkw
    assert elapsed < 120.0


# -------------------------------------------------------------------------
# 9. end-to-end CLI determinism
# -------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "11")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "\n".join(
            [
                "window = 8",
                "n_experts = 2",
                "latent_dim = 6",
                "top_k = 8",
                "hidden_dim = 12",
                "hidden_layers = 1",
                "gate_hidden_dim = 2",
                "epochs = 8",
                "teacher_epochs = 2",
                "batch_size = 128",
                "synth_block_length = 75",
                "synth_blocks = 8",
                "forecast = file",
            ]
        )
        + "\n"
    )
    data = tmp_path / "data"
    assert cli_main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    full_cfg = tmp_path / "full.cfg"
    full_cfg.write_text(
        cfg_path.read_text()
        + f"series_csv = {data / 'series.csv'}\n"
        + f"forecast_csv = {data / 'forecasts.csv'}\n"
    )

    checkpoints, reports = [], []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"model_{tag}.json"
        out = tmp_path / f"report_{tag}"
        assert cli_main(["train", "--config", str(full_cfg), "--out", str(ckpt)]) == 0
        assert (
            cli_main(
                [
                    "eval", "--config", str(full_cfg),
                    "--method", "uniform", "--method", "rarecp_checkpoint",
                    "--checkpoint", str(ckpt), "--out", str(out),
                ]
            )
            == 0
        )
        checkpoints.append(ckpt.read_bytes())
        reports.append(
            (
                (out / "summary.csv").read_bytes(),
                (out / "records.csv").read_bytes(),
            )
        )
    ckpt_ok = checkpoints[0] == checkpoints[1]
    report_ok = reports[0] == reports[1]
    ok = ckpt_ok and report_ok
    report(9, ok, f"checkpoints identical={ckpt_ok}, report CSVs identical={report_ok}")
    assert ckpt_ok
    assert report_ok


# -------------------------------------------------------------------------
# 10. leakage guard on every method
# -------------------------------------------------------------------------


def test_criterion_10_leakage_guard(small_trained, small_regime_problem):
    prob = small_regime_problem
    series, split = prob["series"], prob["split"]
    cfg = EvalConfig(window=8, include_forecast=True,
                     checkpoint=small_trained["components"])
    rng = np.random.default_rng(10)
    test_indices = list(split.test)
    cut = test_indices[len(test_indices) // 2]
    permuted = series.values.copy()
    future = np.arange(cut + 1, len(series))
    permuted[future] = permuted[rng.permutation(future)]
    shuffled = TimeSeries(values=permuted, name=series.name)

    failures = []
    for method in ("uniform", "aci_uniform", "nexcp", "rarecp_checkpoint"):
        base = run_chronological_eval(series, split, prob["source"], method, cfg)
        alt = run_chronological_eval(shuffled, split, prob["source"], method, cfg)
        for r_base, r_alt in zip(base, alt):
            if r_base.time_index > cut:
                break
            if (r_base.lower, r_base.upper, r_base.alpha_used) != (
                r_alt.lower, r_alt.upper, r_alt.alpha_used
            ):
                failures.append(method)
                break
    ok = not failures
    report(10, ok, f"shuffle-future invariance on all methods; failures={failures}")
    assert not failures
