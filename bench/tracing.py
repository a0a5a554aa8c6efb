"""Span tracing for the benchmark's traced run.

The traced run wraps public callables of ``rarecp`` from the outside: each
name is patched where it is looked up (``gate.py``, ``harness.py`` and
``estimators.py`` import functions by name, so patching only the defining
module would miss those calls). Every call records one span: its name,
start, end, self time, parent span and the step id the benchmark set
before the call. Spans stay in memory and are written out when the run
ends. Self time is the span's duration minus the time covered by its
child spans, so self times of nested spans add up without double counting.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, self_s, parent_id, step)
        self.counters: dict[str, float] = defaultdict(float)
        self.step: int | None = None
        self.recording = True
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None, pre=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``pre(args)`` runs before the call; ``hook(counters, args, result,
        state)`` runs after it with ``pre``'s return value as ``state``, so
        counts are taken at the same boundary as the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = pre(args) if pre is not None else None
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, time.perf_counter(), 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append(
                    (frame[0], name, frame[1], end, duration - frame[2],
                     None if parent is None else parent[0], tracer.step)
                )
            if hook is not None:
                hook(tracer.counters, args, result, state)
            return result

        return traced

    def patch(self, name: str, targets, hook=None, pre=None) -> None:
        """Replace ``owner.attr`` for each (owner, attr) in ``targets``."""
        for owner, attr in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, original, hook, pre))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        lines = ["id,name,start,end,self_s,parent,step"]
        for span_id, name, start, end, self_s, parent, step in self.spans:
            lines.append(
                f"{span_id},{name},{start:.9f},{end:.9f},{self_s:.9f},"
                f"{'' if parent is None else parent},{'' if step is None else step}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# counters taken at the patched boundaries
# ---------------------------------------------------------------------------


def _rows(counters, args, result, state):
    counters["data.normalize_context.rows"] += 1 if np.ndim(args[0]) < 2 else np.shape(args[0])[0]


def _projections_before(args):
    return args[0].projections.count


def _projections(counters, args, result, state):
    counters["experts.projections"] += args[0].projections.count - state


def _topk(counters, args, result, state):
    counters["experts.topk.scored"] += np.size(args[0])
    counters["experts.topk.kept"] += np.size(result)


def _union(counters, args, result, state):
    counters["gate.union_size.sum"] += np.size(result[1])


def _support(counters, args, result, state):
    counters["conformal.support_size.sum"] += len(args[1])


def _tape_records(counters, args, result, state):
    counters["autodiff.tape_records.sum"] += len(args[0].records)


def _checkpoint_bytes(counters, args, result, state):
    counters["checkpoint.bytes"] = float(Path(args[1]).stat().st_size)


def install(tracer: Tracer) -> None:
    """Patch every traced callable of ``rarecp`` where it is looked up."""
    from rarecp import (
        autodiff, checkpoint, conformal, data, estimators, experts, gate, harness, training,
    )

    p = tracer.patch
    # data
    p("data.store_append", [(data.CalibrationStore, "append")])
    p("data.store_contexts", [(data.CalibrationStore, "contexts")])
    p("data.store_residuals", [(data.CalibrationStore, "residuals")])
    p("data.normalize_context",
      [(m, "normalize_context") for m in (data, experts, gate, training)], hook=_rows)
    # experts
    p("experts.retrieve", [(experts.RetrievalExpert, "retrieve")],
      hook=_projections, pre=_projections_before)
    p("experts.emit",
      [(experts.HypernetworkParams, "emit"), (experts.FixedAffineMap, "emit")])
    p("experts.normalize_keys", [(experts, "normalize_keys")])
    p("experts.topk", [(experts, "topk_retrieve")], hook=_topk)
    # gate
    p("gate.rarecp_interval", [(m, "rarecp_interval") for m in (gate, estimators, harness)])
    p("gate.mixed_support", [(m, "mixed_support") for m in (gate, estimators)])
    p("gate.gate_weights", [(gate, "gate_weights")])
    p("gate.mix_supports", [(gate, "mix_supports")], hook=_union)
    # conformal
    p("conformal.build_interval",
      [(m, "build_interval") for m in (conformal, gate, harness, estimators)], hook=_support)
    p("conformal.baseline_weights",
      [(m, "baseline_weights") for m in (conformal, harness, estimators)])
    p("conformal.aci_update", [(m, "aci_update") for m in (conformal, harness)])
    # estimators
    for cls in (estimators.RareCP, estimators.SplitConformal):
        p("estimators.predict_interval", [(cls, "predict_interval")])
        p("estimators.observe", [(cls, "observe")])
        p("estimators.fit", [(cls, "fit")])
    p("estimators.seed_store", [(estimators.RareCP, "seed_store")])
    # harness
    for name in ("run_chronological_eval", "calibration_entries", "compute_metrics",
                 "emit_report"):
        p(f"harness.{name}", [(harness, name)])
    # training and autodiff
    for stage in ("fit_teachers", "fit_experts", "fit_gate"):
        p(f"training.{stage}", [(training.Trainer, stage)])
    p("autodiff.backward", [(autodiff.Tape, "backward")], hook=_tape_records)
    p("autodiff.adam_step", [(autodiff.Adam, "step")])
    # checkpoint
    p("checkpoint.save", [(m, "save_checkpoint") for m in (checkpoint, estimators)],
      hook=_checkpoint_bytes)
    p("checkpoint.load", [(m, "load_checkpoint") for m in (checkpoint, estimators, harness)])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

BUSY = (
    "data.store_append", "data.store_contexts", "data.store_residuals",
    "data.normalize_context",
    "experts.retrieve", "experts.emit", "experts.normalize_keys", "experts.topk",
    "gate.rarecp_interval", "gate.mixed_support", "gate.gate_weights", "gate.mix_supports",
    "conformal.build_interval", "conformal.baseline_weights",
    "estimators.predict_interval", "estimators.observe",
    "harness.run_chronological_eval", "harness.calibration_entries", "harness.emit_report",
    "training.fit_teachers", "training.fit_experts", "training.fit_gate",
    "autodiff.backward", "autodiff.adam_step",
    "checkpoint.save", "checkpoint.load",
)
CALLS = ("data.store_append", "experts.retrieve", "conformal.aci_update", "autodiff.backward")


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every span the traced run recorded."""
    busy: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for _, name, start, end, self_s, _, _ in tracer.spans:
        busy[name] += self_s
        total[name] += end - start
        calls[name] += 1
    c = tracer.counters
    out = {f"{name}.busy_s": busy[name] for name in BUSY}
    out.update({f"{name}.calls": float(calls[name]) for name in CALLS})
    out["data.normalize_context.rows"] = c["data.normalize_context.rows"]
    out["experts.projections"] = c["experts.projections"]
    out["experts.keys_per_query"] = _ratio(c["experts.projections"], calls["experts.retrieve"])
    out["experts.topk_kept_ratio"] = _ratio(c["experts.topk.kept"], c["experts.projections"])
    out["gate.union_size_mean"] = _ratio(c["gate.union_size.sum"], calls["gate.mix_supports"])
    out["conformal.support_size_mean"] = _ratio(
        c["conformal.support_size.sum"], calls["conformal.build_interval"])
    optimizer_steps = calls["autodiff.adam_step"]
    stages = sum(total[f"training.{s}"] for s in ("fit_teachers", "fit_experts", "fit_gate"))
    out["training.optimizer_steps"] = float(optimizer_steps)
    out["training.step_ms"] = 1e3 * _ratio(stages, optimizer_steps)
    out["autodiff.tape_records_mean"] = _ratio(
        c["autodiff.tape_records.sum"], calls["autodiff.backward"])
    out["checkpoint.bytes"] = c["checkpoint.bytes"]
    return out


def window_self_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer for spans recorded inside the measured window."""
    layers: dict[str, float] = defaultdict(float)
    for _, name, _, _, self_s, _, step in tracer.spans:
        if step is not None:
            layers[name.split(".", 1)[0]] += self_s
    return dict(layers)
