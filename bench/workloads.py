"""The four benchmark workloads, driven through the public API of ``rarecp``.

Inputs are generated from the workload seed with ``rarecp.synthetic``: a
two-regime series (levels 0 and 20, noise scales 1 and 5, blocks of
``BLOCK`` steps) whose noise-free component serves as the point forecast,
so each residual is the regime's noise. Contexts are the last ``WINDOW``
values plus the forecast, exactly what ``rarecp.data.build_context`` makes.

A run is split into rounds, each set up afresh on its own series (stream
ids are offset by the round number). Each workload function measures one
round into ``run.out``, a :class:`Part` of raw samples; ``run.py`` pools
the rounds into the reported metrics.
"""

from __future__ import annotations

import gc
import math
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import reference
import tracing
from rarecp import RareCP, SplitConformal, harness
from rarecp.data import ForecastSource, SplitIndices, TimeSeries
from rarecp.errors import RareCPError
from rarecp.synthetic import clean_component, synth_regime_series, two_regime_config

WINDOW = 64
ALPHA = 0.2
BLOCK = 100
WARMUP_STEPS = 20
CHECK_EVERY = 20  # reference-check one step in this many

# serving models: full default architecture, smallest training budget
SERVE_FIT_N = 128
SERVE_FIT = {"epochs": 1, "teacher_epochs": 1}
SERVE_REFITS = 2  # extra timed fits per round after serving, for the fit_s median

LONG_STORE = 4096
LONG_STREAM = 6000  # rows available per round; the loop stops early if it runs out
LONG_SCORED = 300  # nwink/coverage use exactly the first this many steps of a round

MANY_STREAMS = 10
MANY_STORE = 256
# steps/s across all streams: the parent is busy about a third of the time. At
# half, queueing amplified the shared machine's speed swings into 40% p50 swings.
MANY_RATE = 120.0
MANY_MAX_STRETCH = 2.0  # a window overrunning this factor counts the rest as missed

FIT_N = 600
FIT_BUDGET = {"epochs": 2, "teacher_epochs": 1}
HOLDOUT = 500  # held-out online steps per round

EVAL_STORE = 4096
EVAL_TEST = 300
EVAL_METHODS = ("uniform", "aci_uniform", "nexcp")
EVAL_SETUP_REPS = 5
FIT_SETUP_REPS = 20


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Stream:
    """Online inputs: row i is time WINDOW + i of the generated series."""

    X: np.ndarray
    forecast: np.ndarray
    y: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        return self.y - self.forecast

    def __len__(self) -> int:
        return self.y.size

    def __getitem__(self, rows: slice) -> "Stream":
        return Stream(X=self.X[rows], forecast=self.forecast[rows], y=self.y[rows])


def make_series(seed: int, length: int, stream_id: int):
    cfg = two_regime_config(block_length=BLOCK, n_blocks=math.ceil(length / BLOCK))
    series, _ = synth_regime_series(cfg, seed=seed * 1000 + stream_id)
    return series.values[:length], clean_component(cfg)[:length]


def make_stream(seed: int, n: int, stream_id: int) -> Stream:
    values, clean = make_series(seed, WINDOW + n, stream_id)
    X = np.concatenate([sliding_window_view(values, WINDOW)[:-1], clean[WINDOW:, None]], axis=1)
    return Stream(X=X, forecast=clean[WINDOW:], y=values[WINDOW:])


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Book:
    """Operations attempted and failed, reference checks, and failed checks."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    checked: int = 0
    mismatched: int = 0
    ambiguous: int = 0
    problems: list = field(default_factory=list)

    def call(self, op: str, fn, *args, **kwargs):
        self.attempted[op] += 1
        try:
            return fn(*args, **kwargs)
        except RareCPError as exc:
            self.failed[op] += 1
            self.problem(f"{op} raised {type(exc).__name__}: {exc}")
            return None

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def require(self, ok: bool, text: str) -> None:
        if not ok:
            self.problem(text)

    def compare(self, op: str, got: tuple, ref: tuple) -> None:
        """Count a reference comparison; a mismatch fails the operation."""
        self.checked += 1
        lo, hi, tied = ref
        if reference.matches(got[0], lo) and reference.matches(got[1], hi):
            return
        if tied:
            self.ambiguous += 1
            return
        self.mismatched += 1
        self.failed[op] += 1
        self.problem(f"{op}: interval [{got[0]!r}, {got[1]!r}] != reference [{lo!r}, {hi!r}]")


@dataclass
class Part:
    """Raw samples one round measured; run.py pools them across rounds."""

    setup_s: list = field(default_factory=list)
    fit_s: list = field(default_factory=list)
    latency: list = field(default_factory=list)  # per online step, untraced window
    busy_s: float = 0.0  # serving time behind ``latency``
    window_s: float = 0.0  # wall time of the untraced open-loop window
    lag: list = field(default_factory=list)  # how late each open-loop step started
    traced_latency: list = field(default_factory=list)
    traced_busy_s: float = 0.0
    lower: list = field(default_factory=list)  # scored intervals ...
    upper: list = field(default_factory=list)
    y: list = field(default_factory=list)
    alpha: list = field(default_factory=list)  # ... and the level each was built at
    info: dict = field(default_factory=dict)

    def score(self, interval, y: float, alpha: float = ALPHA) -> None:
        self.lower.append(interval.lower)
        self.upper.append(interval.upper)
        self.y.append(float(y))
        self.alpha.append(alpha)


class SetupError(RuntimeError):
    """Set-up could not produce a model to serve; the run cannot continue."""


class Run:
    """One round of a benchmark run: seed, duration, tracer and bookkeeping.

    The rounds of a run share the tracer and the book; each measures into
    its own ``out``.
    """

    def __init__(self, seed: int, index: int, seconds: float, tracer, book: Book,
                 work_dir: Path):
        self.seed = seed
        self.index = index
        self.seconds = seconds
        self.tracer = tracer
        self.book = book
        self.work_dir = work_dir
        self.out = Part()

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def phases(self) -> list[tuple[float, bool]]:
        """(share of the window, traced) pairs; shares sum to 1.

        A traced run alternates untraced and traced windows, so the
        tracing overhead is not confounded with drift in machine speed.
        """
        if not self.traced:
            return [(1.0, False)]
        return [(1.0 / 6.0, False), (1.0 / 6.0, True)] * 3

    def trace(self, on: bool):
        return _Tracing(self.tracer if on else None)

    def set_step(self, step) -> None:
        if self.tracer is not None:
            self.tracer.step = step

    def record(self, traced: bool, latencies: list, busy_s: float) -> None:
        if traced:
            self.out.traced_latency.extend(latencies)
            self.out.traced_busy_s += busy_s
        else:
            self.out.latency.extend(latencies)
            self.out.busy_s += busy_s

    def set_up(self, build, reps: int = 1):
        """Run ``build()`` ``reps`` times (once when traced); return the last result."""
        result = None
        for _ in range(1 if self.traced else reps):
            gc.collect()
            t0 = time.perf_counter()
            with self.trace(self.traced):
                result = build()
            self.out.setup_s.append(time.perf_counter() - t0)
        return result

    # -- serving ------------------------------------------------------------

    def timed_fit(self, X, r, budget: dict) -> RareCP:
        """``RareCP.fit`` with its wall time added to ``fit_s``."""
        t0 = time.perf_counter()
        est = self.book.call("fit", RareCP(seed=self.seed, **budget).fit, X, r)
        self.out.fit_s.append(time.perf_counter() - t0)
        if est is None:
            raise SetupError("RareCP.fit failed")
        return est

    def refit(self, X, r) -> None:
        """Fit the serving model again, outside set-up, so fit_s rests on more samples."""
        for _ in range(0 if self.traced else SERVE_REFITS):
            gc.collect()
            self.timed_fit(X, r, SERVE_FIT)

    def fit_checkpoint(self, X, r) -> Path:
        """Fit a serving model with the smallest budget and save it."""
        path = self.work_dir / f"model-{self.index}.json"
        est = self.timed_fit(X, r, SERVE_FIT)
        self.book.call("save", est.save, path)
        return path

    def open_model(self, path: Path, X, r) -> RareCP:
        est = self.book.call("from_checkpoint", RareCP.from_checkpoint, path)
        if est is None:
            raise SetupError("checkpoint load failed")
        est.set_params(capacity=r.size)
        self.book.call("seed_store", est.seed_store, X, r)
        return est

    def check_rarecp(self, est: RareCP, x, forecast: float, interval) -> None:
        if self.tracer is not None:
            self.tracer.recording = False
        try:
            store = est.store_
            ref = reference.rarecp_interval(
                est, store.contexts(), store.residuals(), x, forecast, est.alpha
            )
        finally:
            if self.tracer is not None:
                self.tracer.recording = True
        self.book.compare("predict_interval", (interval.lower, interval.upper), ref)

    def serve_step(self, est: RareCP, x, forecast: float, y: float, check: bool):
        """predict_interval then observe; returns (interval, latency, paused)."""
        t0 = time.perf_counter()
        interval = self.book.call("predict_interval", est.predict_interval, x, forecast)
        t1 = time.perf_counter()
        if check and interval is not None:
            self.check_rarecp(est, x, forecast, interval)
        t2 = time.perf_counter()
        self.book.call("observe", est.observe, x, y - forecast)
        t3 = time.perf_counter()
        return interval, (t1 - t0) + (t3 - t2), t2 - t1

    def closed_loop(self, est, stream: Stream, first: int, stop: int, seconds=None,
                    latencies: list | None = None, score_until: int = 0) -> int:
        """One caller serves rows first..stop-1, for at most ``seconds`` of serving.

        Latencies are appended to ``latencies`` when given; rows below
        ``score_until`` are scored. Reference checks pause the clock.
        Returns the next unserved row.
        """
        i, paused, begin = first, 0.0, time.perf_counter()
        while i < stop and (seconds is None or time.perf_counter() - begin - paused < seconds):
            if latencies is not None:
                self.set_step(i)
            interval, latency, p = self.serve_step(
                est, stream.X[i], stream.forecast[i], stream.y[i], (i - first) % CHECK_EVERY == 0
            )
            if latencies is not None:
                latencies.append(latency)
            if interval is not None and i < score_until:
                self.out.score(interval, stream.y[i])
            paused += p
            i += 1
        self.set_step(None)
        return i


class _Tracing:
    """Patches the traced callables for the duration of a ``with`` block."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            tracing.install(self.tracer)

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.uninstall()


def winkler(lower, upper, y, alpha) -> np.ndarray:
    lower, upper, y, alpha = (np.asarray(v, dtype=np.float64) for v in (lower, upper, y, alpha))
    return (upper - lower) + (2.0 / alpha) * (
        np.maximum(lower - y, 0.0) + np.maximum(y - upper, 0.0)
    )


# ---------------------------------------------------------------------------
# serve_long_window
# ---------------------------------------------------------------------------


def serve_long_window(run: Run) -> None:
    def build():
        stream = make_stream(run.seed, SERVE_FIT_N + LONG_STORE + LONG_STREAM, run.index)
        path = run.fit_checkpoint(stream.X[:SERVE_FIT_N], stream.residual[:SERVE_FIT_N])
        rows = slice(SERVE_FIT_N, SERVE_FIT_N + LONG_STORE)
        return stream, run.open_model(path, stream.X[rows], stream.residual[rows])

    stream, est = run.set_up(build)
    first = SERVE_FIT_N + LONG_STORE
    i = run.closed_loop(est, stream, first, first + WARMUP_STEPS)
    # quality is scored on a fixed prefix, so it does not depend on speed
    score_until = i + LONG_SCORED
    for share, traced in run.phases():
        latencies: list = []
        gc.collect()
        with run.trace(traced):
            i = run.closed_loop(est, stream, i, len(stream), share * run.seconds, latencies,
                                score_until)
        run.record(traced, latencies, sum(latencies))
    run.closed_loop(est, stream, i, score_until, score_until=score_until)
    run.refit(stream.X[:SERVE_FIT_N], stream.residual[:SERVE_FIT_N])
    run.out.info["store"] = LONG_STORE


# ---------------------------------------------------------------------------
# serve_many_streams
# ---------------------------------------------------------------------------


def _wait_until(deadline: float) -> None:
    # spin rather than sleep: waking an idle vCPU adds milliseconds of jitter
    while time.perf_counter() < deadline:
        pass


def serve_many_streams(run: Run) -> None:
    per_stream = math.ceil((MANY_RATE * run.seconds + WARMUP_STEPS) / MANY_STREAMS) + 1
    ids = run.index * (MANY_STREAMS + 1)

    # stream s starts s/MANY_STREAMS of a regime cycle later, so the steps
    # served together cover both regimes however short the window is
    lead = [2 * BLOCK * s // MANY_STREAMS for s in range(MANY_STREAMS)]

    def build():
        fit_rows = make_stream(run.seed, SERVE_FIT_N, ids + MANY_STREAMS)
        path = run.fit_checkpoint(fit_rows.X, fit_rows.residual)
        streams = [make_stream(run.seed, lead[s] + MANY_STORE + per_stream, ids + s)[lead[s]:]
                   for s in range(MANY_STREAMS)]
        models = [run.open_model(path, s.X[:MANY_STORE], s.residual[:MANY_STORE])
                  for s in streams]
        return fit_rows, streams, models

    fit_rows, streams, models = run.set_up(build)
    cursor = [MANY_STORE] * MANY_STREAMS
    book = run.book

    def open_loop(n_steps: int, j0: int, timed: bool, traced: bool = False) -> None:
        """Round-robin steps due every 1/MANY_RATE s, timed from their due time."""
        latencies, service, base, paused = [], 0.0, time.perf_counter(), 0.0
        for j in range(n_steps):
            due = base + paused + j / MANY_RATE
            _wait_until(due)
            start = time.perf_counter()
            if start - base - paused > MANY_MAX_STRETCH * n_steps / MANY_RATE:
                missed = n_steps - j
                book.attempted["predict_interval"] += missed
                book.failed["predict_interval"] += missed
                book.problem(f"open loop fell behind; {missed} steps missed")
                break
            s = (j0 + j) % MANY_STREAMS
            i = cursor[s]
            cursor[s] += 1
            if timed:
                run.set_step(j0 + j)
            interval, busy, p = run.serve_step(
                models[s], streams[s].X[i], streams[s].forecast[i], streams[s].y[i],
                j % CHECK_EVERY == 0,
            )
            paused += p
            if not timed:
                continue
            latencies.append(start - due + busy)
            service += busy
            if not traced:
                run.out.lag.append(start - due)
            if interval is not None:
                run.out.score(interval, streams[s].y[i])
        run.set_step(None)
        if timed:
            run.record(traced, latencies, service)
            if not traced:
                run.out.window_s += n_steps / MANY_RATE

    open_loop(WARMUP_STEPS, 0, timed=False)
    j0 = WARMUP_STEPS
    for share, traced in run.phases():
        n_steps = int(MANY_RATE * share * run.seconds)
        gc.collect()
        with run.trace(traced):
            open_loop(n_steps, j0, timed=True, traced=traced)
        j0 += n_steps
    del models
    run.refit(fit_rows.X, fit_rows.residual)
    run.out.info.update(streams=MANY_STREAMS, store=MANY_STORE, rate_steps_per_s=MANY_RATE)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def fit(run: Run) -> None:
    stream = run.set_up(lambda: make_stream(run.seed, FIT_N + HOLDOUT, run.index),
                        reps=FIT_SETUP_REPS)
    X, r = stream.X[:FIT_N], stream.residual[:FIT_N]
    est, begin = None, time.perf_counter()
    gc.collect()
    with run.trace(run.traced):
        # fit again while another fit is expected to end nearer the window's
        # end than the last one did
        while est is None or (time.perf_counter() - begin
                              + statistics.median(run.out.fit_s) / 2 <= run.seconds):
            run.set_step(-1)
            est = run.timed_fit(X, r, FIT_BUDGET)
    run.set_step(None)
    # held-out online pass, excluded from fit_s
    i, done = FIT_N, 0.0
    for share, traced in run.phases():
        done += share
        latencies: list = []
        gc.collect()
        with run.trace(traced):
            i = run.closed_loop(est, stream, i, FIT_N + round(done * HOLDOUT), None, latencies,
                                FIT_N + HOLDOUT)
        run.record(traced, latencies, sum(latencies))
    if run.traced:
        run.out.traced_busy_s += sum(run.out.fit_s)
    run.out.info["store"] = FIT_N


# ---------------------------------------------------------------------------
# eval_baselines
# ---------------------------------------------------------------------------


class TimedForecast(ForecastSource):
    """Precomputed point forecasts that timestamp each test step as it starts.

    The harness asks for the forecast first thing in every test step, so
    the gaps between these calls are the per-step latencies.
    """

    def __init__(self, forecasts: np.ndarray, test_start: int, run: Run):
        self.forecasts = forecasts
        self.test_start = test_start
        self.run = run
        self.stamps: list[float] = []

    def point_forecast(self, history, time_index: int) -> float:
        if time_index >= self.test_start:
            self.stamps.append(time.perf_counter())
            self.run.set_step(time_index)
        return float(self.forecasts[time_index])


def eval_baselines(run: Run) -> None:
    cal = range(WINDOW, WINDOW + EVAL_STORE)
    test = range(cal.stop, cal.stop + EVAL_TEST)
    split = SplitIndices(train=range(0, WINDOW), cal=cal, test=test)
    cfg = harness.EvalConfig(alpha=ALPHA, window=WINDOW, include_forecast=True,
                             capacity=EVAL_STORE)
    book = run.book

    def build():
        values, clean = make_series(run.seed, test.stop, run.index)
        residual = values - clean
        fitted = {}
        for weighting in ("uniform", "nexcp"):
            t0 = time.perf_counter()
            fitted[weighting] = book.call(
                "fit", SplitConformal(alpha=ALPHA, weighting=weighting,
                                      nexcp_lambda=cfg.nexcp_lambda, capacity=EVAL_STORE).fit,
                None, residual[cal.start:cal.stop])
            run.out.fit_s.append(time.perf_counter() - t0)
        return TimeSeries(values), clean, residual, fitted

    series, clean, residual, fitted = run.set_up(build, reps=EVAL_SETUP_REPS)
    source = TimedForecast(clean, test.start, run)
    first: dict[str, list] = {}
    calls, busy_total = 0, 0.0
    for share, traced in run.phases():
        latencies, busy, begin = [], 0.0, time.perf_counter()
        gc.collect()
        with run.trace(traced):
            # one call per window at least and every method once, then more
            # calls while another is expected to end inside the window
            while busy == 0.0 or calls < len(EVAL_METHODS) or (
                    time.perf_counter() - begin + busy_total / calls <= share * run.seconds):
                method = EVAL_METHODS[calls % len(EVAL_METHODS)]
                source.stamps = []
                run.set_step(-1)
                t0 = time.perf_counter()
                records = book.call("run_chronological_eval", harness.run_chronological_eval,
                                    series, split, source, method, cfg)
                t1 = time.perf_counter()
                run.set_step(None)
                busy += t1 - t0
                busy_total += t1 - t0
                calls += 1
                if records is None:
                    continue
                latencies.extend(np.diff(np.asarray(source.stamps + [t1])).tolist())
                if method not in first:
                    first[method] = records
                else:
                    book.require(records == first[method],
                                 f"{method}: repeated evaluation changed its records")
        run.record(traced, latencies, busy)

    std_y = float(np.std(series.values[test.start:test.stop]))
    summaries = []
    with run.trace(run.traced):
        for method, records in first.items():
            _check_baseline(book, method, records, residual, clean, cfg, test.start)
            summary = book.call("compute_metrics", harness.compute_metrics, records, std_y)
            if summary is not None:
                summaries.append(summary)
                mine = winkler(*zip(*[(r.lower, r.upper, r.y, r.alpha_used) for r in records]))
                book.require(reference.matches(summary.nwink, float(mine.mean()) / std_y),
                             f"{method}: compute_metrics nwink differs from the recomputed one")
            for r in records:
                run.out.score(r, r.y, r.alpha_used)
        _report(run, summaries, first)
    _check_fitted_baselines(book, fitted, first, clean[test.start])
    run.out.info["store"] = EVAL_STORE


def _check_baseline(book: Book, method, records, residual, clean, cfg, test_start) -> None:
    book.require(len(records) == EVAL_TEST, f"{method}: {len(records)} records, not {EVAL_TEST}")
    book.require([r.time_index for r in records] == list(range(test_start, test_start + EVAL_TEST)),
                 f"{method}: records are not the test steps in order")
    if method == "aci_uniform":
        expected = reference.aci_alphas([r.covered for r in records], cfg.alpha, cfg.aci_gamma,
                                        cfg.aci_alpha_min, cfg.aci_alpha_max)
    else:
        expected = np.full(len(records), cfg.alpha)
    book.require(np.array_equal([r.alpha_used for r in records], expected),
                 f"{method}: working miscoverage levels differ from the ACI recursion")
    for r in records[::CHECK_EVERY]:
        t = r.time_index
        book.require(r.forecast == clean[t], f"{method}: forecast at {t} was altered")
        ref = reference.baseline_interval(
            method, residual[t - EVAL_STORE:t], clean[t], r.alpha_used, cfg.nexcp_lambda
        )
        book.compare("run_chronological_eval", (r.lower, r.upper), ref)


def _check_fitted_baselines(book: Book, fitted: dict, first: dict, forecast: float) -> None:
    """The fitted SplitConformal estimators agree with the harness's first step."""
    for weighting, est in fitted.items():
        if est is None or weighting not in first:
            continue
        interval = book.call("predict_interval", est.predict_interval, forecast)
        r = first[weighting][0]
        book.require(interval is not None and (interval.lower, interval.upper) == (r.lower, r.upper),
                     f"SplitConformal({weighting}) disagrees with the harness")


def _report(run: Run, summaries, records: dict) -> None:
    with tempfile.TemporaryDirectory(dir=run.work_dir) as out:
        paths = run.book.call("emit_report", harness.emit_report, summaries, records, out,
                              {"seed": run.seed, "methods": list(EVAL_METHODS)})
        if paths is not None:
            summary = Path(paths["summary"]).read_text(encoding="utf-8").splitlines()
            run.book.require(len(summary) == 1 + len(summaries),
                             "emit_report wrote the wrong number of summary rows")


WORKLOADS = {
    "serve_long_window": serve_long_window,
    "serve_many_streams": serve_many_streams,
    "fit": fit,
    "eval_baselines": eval_baselines,
}
