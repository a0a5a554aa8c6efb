"""Smooth interval-score training: teachers, retrieval experts, then the gate.

The hard weighted quantile is replaced by a sigmoid-CDF relaxation and the
miss indicators by temperature softplus penalties, giving a differentiable
surrogate of the Winkler score. With sorted support ``(r_(i), p_(i))`` and
cumulative endpoints ``C_{i-1}, C_i``:

    b_i(q)      = [sigmoid((q - C_{i-1}) / tau_q) - sigmoid((q - C_i) / tau_q)]_+
    lambda_i(q) = b_i / sum_l b_l
    Qs(q)       = sum_i lambda_i(q) * r_(i)

    loss_alpha  = Qs(1 - a/2) - Qs(a/2)
                  + (2/a) * [softplus_tp(Qs(a/2) - r_j) + softplus_tp(r_j - Qs(1 - a/2))]

and the training objective averages loss_alpha over a small grid of levels
centered on the target miscoverage. As both temperatures go to zero this
recovers the hard weighted quantiles and the hard Winkler score. At high
tau_q the smooth lower quantile can cross the smooth upper one; the width
term is allowed to go transiently negative (no ordering correction), which
only affects the surrogate, never hard evaluation.

Training units are leave-one-out episodes: the held-out query retrieves
from the minibatch candidates excluding itself, so its own residual never
enters its support. A dataset is a conditioned ``CalibrationStore``, read
through its key inputs and descriptor features as serving reads it.
Three stages: prefit affine teachers, then hypernetwork students anchored
to their teachers in parameter space, then the gate (experts frozen) with
an entropy bonus that discourages early collapse onto one expert.

Every run is one loop, ``Trainer._train``: a model's arrays as leaf tensors
(``leaves``), a learning rate, the batches of an epoch and a loss, with its
own Adam, cosine tau_q schedule and step counter, every step taken through
``optimizer_step``.
There is one run per (expert, dataset) for the teachers, one per expert for
the students, one over the prepared rounds for the gate.

A fit is one ordered task list (``Trainer._queue``, run by ``_Schedule``):
teacher (m, d); expert m, which starts once teachers (m, .) have finished
and trains in the ``ExpertStack`` that serves it; then, per (gate round,
dataset, expert m), expert m's forward-only leave-one-out supports, which
start once expert m has. A pool of as many threads as the machine has CPUs
per BLAS thread (``training_workers``), or else the calling thread, takes
the tasks in order. The calling thread waits for each stage's tasks in turn
(``fit_teachers``, ``fit_experts``, ``fit_gate``), merges their logs and
audit buffers in stage and run order, builds the gate's batches from the
supports and trains the gate: the outcome is the same bytes as running
every task one after another.
"""

from __future__ import annotations

import ctypes
import math
import os
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, fields
from functools import cache, partial
from pathlib import Path

import numpy as np

from rarecp import autodiff as ad
from rarecp.autodiff import Adam, Tape, Tensor
from rarecp.data import CalibrationStore, encoder_inputs
from rarecp.errors import DataError, NumericError
from rarecp.experts import (
    ExpertConfig,
    ExpertStack,
    FixedAffineMap,
    HypernetworkParams,
    RetrievalExpert,
)
from rarecp.gate import GateParams
from rarecp.validation import check_fields


def default_alpha_grid(center: float = 0.20, step: float = 0.02, spread: int = 5):
    """Miscoverage grid {center} union {center +/- step*m, m=1..spread}."""
    levels = sorted(center + step * m for m in range(-spread, spread + 1))
    if levels[0] <= 0.0 or levels[-1] >= 1.0:
        raise DataError("alpha grid leaves (0, 1)")
    return tuple(levels)


@dataclass(frozen=True)
class TemperatureSchedule:
    """Cyclic quantile temperature: cosine from tau_start down to tau_end."""

    tau_start: float = 0.05
    tau_end: float = 1e-4
    cycle_steps: int = 100

    def __post_init__(self):
        if self.tau_start <= 0 or self.tau_end <= 0:
            raise DataError("temperatures must be positive")
        if self.cycle_steps < 1:
            raise DataError("cycle_steps must be >= 1")


def temperature_at(step: int, schedule: TemperatureSchedule) -> float:
    """Temperature at a training step; exact at cycle peaks and troughs."""
    phase = (step % schedule.cycle_steps) / schedule.cycle_steps
    w = 0.5 * (1.0 + math.cos(2.0 * math.pi * phase))
    if w < 1e-12:
        w = 0.0
    elif w > 1.0 - 1e-12:
        w = 1.0
    return schedule.tau_end + (schedule.tau_start - schedule.tau_end) * w


@dataclass(frozen=True)
class TrainConfig:
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
    seed: int = 0
    audit: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.lambda_anchor < 0 or self.lambda_entropy < 0:
            raise DataError("regularization weights must be >= 0")
        if min(self.student_lr, self.gate_lr, self.teacher_lr) <= 0:
            raise DataError("learning rates must be positive")
        if min(self.epochs, self.teacher_epochs, self.n_cycles) < 1:
            raise DataError("epochs and cycle count must be >= 1")
        if self.batch_size < 3:
            raise DataError("batch_size must be >= 3: an episode needs 2 other candidates")
        if not min(self.tau_start, self.tau_end, self.tau_p) > 0:
            raise DataError("loss temperatures must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and context-construction settings, frozen at fit time."""

    n_experts: int = 3
    latent_dim: int = 32
    top_k: int = 32
    beta: float = 12.0
    hidden_dim: int = 96
    hidden_layers: int = 2
    activation: str = "tanh"
    encoder_kind: str = "hypernetwork"
    gate_hidden_dim: int = 4
    window: int = 64
    include_forecast: bool = True
    normalize_contexts: bool = True

    def __post_init__(self):
        check_fields(self)
        counts = ("n_experts", "latent_dim", "top_k", "hidden_dim", "hidden_layers",
                  "gate_hidden_dim", "window")
        if min(getattr(self, name) for name in counts) < 1:
            raise DataError(f"{', '.join(counts)} must be >= 1")
        if not (0.0 < self.beta < math.inf):
            raise DataError(f"beta must be positive and finite, got {self.beta!r}")
        if self.activation not in ("tanh", "relu"):
            raise DataError(f"unknown activation {self.activation!r}: use 'tanh' or 'relu'")
        if self.encoder_kind not in ("hypernetwork", "fixed_affine"):
            raise DataError(f"unknown encoder kind {self.encoder_kind!r}")

    @property
    def context_dim(self) -> int:
        return self.window + (1 if self.include_forecast else 0)

    def expert_config(self) -> ExpertConfig:
        return ExpertConfig(top_k=self.top_k, beta=self.beta)


def config_from(cls, source):
    """A ``ModelConfig`` or ``TrainConfig`` read field by field off ``source``.

    ``source`` (a ``RunConfig`` or a ``RareCP``) has an attribute for every
    field except ``audit``, which keeps its default.
    """
    return cls(**{f.name: getattr(source, f.name) for f in fields(cls) if f.name != "audit"})


# ---------------------------------------------------------------------------
# episode-parallel batch losses
# ---------------------------------------------------------------------------


def _valid_batch(batch: np.ndarray) -> bool:
    """An episode needs >= 2 leave-one-out candidates, so a batch needs >= 3."""
    if batch.size == 0:
        return False
    if batch.size < 3:
        warnings.warn(
            f"skipping batch of size {batch.size}: episodes would have fewer "
            "than 2 candidates",
            stacklevel=3,
        )
        return False
    return True


def _batch_contexts(store: CalibrationStore, batch: np.ndarray) -> np.ndarray:
    """Chronological entries ``batch`` as the store keys them: a C-ordered (p, B) block."""
    return np.ascontiguousarray(store.chronological(store.key_inputs())[:-1, batch])


def _weights(model) -> list[np.ndarray]:
    """A model's weight arrays: a fixed map's ``A, b``, or a network's ``w0, b0, w1, b1, ...``."""
    if isinstance(model, FixedAffineMap):
        return [model.A, model.b]
    return [a for pair in model.layers for a in pair]


def leaves(model) -> list[Tensor]:
    """``_weights(model)`` as uncopied leaf tensors: in-place steps of them train the model."""
    return [Tensor(a, requires_grad=True) for a in _weights(model)]


def _expert_retrieval_batch(
    encoder,
    params: Sequence,
    store: CalibrationStore,
    batch: np.ndarray,
    top_k: int,
    temperature: float,
):
    """Leave-one-out retrieval for every episode of a batch at once.

    ``params`` are the encoder's ``_weights``, or their ``leaves``. Each
    batch member is a query; its candidates are the other members.
    Self-retrieval is excluded by masking the query's own score before the
    (constant) top-k selection, ``autodiff.topk_rows``. Returns the
    selected candidate columns ``sel`` (B, k), the softmax weight rows
    (Tensor), and the emitted map stack for anchoring (the raw map output
    for hypernetworks, ``params`` for a fixed affine encoder). A
    hypernetwork's per-episode maps are scored by one fused primitive that
    keeps only the selected and query columns for the backward pass.
    """
    contexts_t = _batch_contexts(store, batch)
    if isinstance(encoder, HypernetworkParams):
        inputs = encoder_inputs(contexts_t, store.features)
        emitted = ad.mlp(zip(params[::2], params[1::2]), inputs, encoder.activation)
        sel, sel_scores = ad.loo_retrieval_scores(emitted, contexts_t, top_k)
    else:
        A, b = emitted = params
        keys2d = ad.l2_normalize(ad.affine(A, ad.constant(contexts_t), b))
        scores = ad.matmul(ad.transpose(keys2d), keys2d)
        masked = scores.data.copy()
        np.fill_diagonal(masked, -np.inf)
        sel = ad.topk_rows(masked, min(top_k, len(batch) - 1))
        sel_scores = ad.gather_rows(scores, sel)
    return sel, ad.softmax_rows(sel_scores, temperature), emitted


def _anchor_term(emitted, teacher: tuple[np.ndarray, np.ndarray], n_episodes: int) -> Tensor:
    """Mean squared parameter-space distance to the teacher map."""
    B_mat, c_vec = teacher
    if isinstance(emitted, Tensor):
        # hypernetwork: stacked flat maps, one column per episode
        flat = np.concatenate([B_mat.reshape(-1), c_vec])
        return ad.sq_distance(emitted, flat[:, None], 1.0 / n_episodes)
    A, b = emitted
    return ad.add(ad.sq_distance(A, B_mat, 1.0), ad.sq_distance(b, c_vec, 1.0))


def _stack_mean(scalars: list[Tensor]) -> Tensor:
    if len(scalars) == 1:
        return scalars[0]
    return ad.reduce_mean(ad.concat([ad.reshape(s, (1,)) for s in scalars]))


def expert_batch_loss(
    encoder,
    params: list[Tensor],
    stores: list[CalibrationStore],
    batches: list[np.ndarray],
    teachers: list[tuple[np.ndarray, np.ndarray]] | None,
    top_k: int,
    temperature: float,
    alpha_grid: np.ndarray,
    tau_q: float,
    tau_p: float,
    lambda_anchor: float,
    audit: list | None = None,
) -> Tensor | None:
    """Full expert objective on one round of batches, in ``params``, ``leaves(encoder)``.

    The interval term averages leave-one-out losses per dataset, then over
    datasets, so each dataset carries equal weight; the anchor term pulls
    every emitted (A, b) toward the dataset-level teacher map. A teacher
    retrieves densely, with ``top_k`` at least its batch size. Returns
    None when every batch was skipped.
    """
    per_ds_losses: list[Tensor] = []
    per_ds_anchors: list[Tensor] = []
    for ds_index, (store, batch) in enumerate(zip(stores, batches)):
        batch = np.asarray(batch, dtype=np.int64)
        if not _valid_batch(batch):
            continue
        sel, weights, emitted = _expert_retrieval_batch(
            encoder, params, store, batch, top_k, temperature
        )
        # taped before the interval loss, so the backward pass has released
        # the loss's temporaries by the time the anchor's gradient block exists
        if teachers is not None and lambda_anchor > 0.0:
            per_ds_anchors.append(_anchor_term(emitted, teachers[ds_index], batch.size))
        support_positions = batch[sel]
        if audit is not None:
            ds_id = store.descriptor.dataset_id
            audit.extend((ds_id, int(j), row) for j, row in zip(batch, support_positions))
        residuals = store.residuals()
        res_sel = residuals[support_positions]
        perm = np.argsort(res_sel, axis=1, kind="stable")
        loss_vec = ad.smooth_winkler_grid(
            ad.gather_rows(weights, perm),
            np.take_along_axis(res_sel, perm, axis=1),
            residuals[batch],
            alpha_grid,
            tau_q,
            tau_p,
        )
        per_ds_losses.append(ad.reduce_mean(loss_vec))
    if not per_ds_losses:
        return None
    total = _stack_mean(per_ds_losses)
    if per_ds_anchors:
        total = ad.add(total, ad.scale(_stack_mean(per_ds_anchors), lambda_anchor))
    return total


@dataclass
class _PreparedGateBatch:
    """Frozen-expert precomputation for one batch of gate episodes."""

    inputs: np.ndarray          # (input_dim, B) gate network input block
    weight_cube: np.ndarray     # (B, U, M): expert weights on the padded union
    residuals_sorted: np.ndarray  # (B, U) union residuals in sorted order
    sort_perm: np.ndarray       # (B, U) permutation applied to union slots
    targets: np.ndarray         # (B,) held-out residuals


def _expert_support(
    expert: RetrievalExpert, store: CalibrationStore, batch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A frozen expert's leave-one-out supports for a batch: (B, k) positions and weights.

    Off the tape the expert emits from its arrays through ``mlp_forward``
    and retrieves without keeping anything for a backward pass.
    """
    sel, weights, _ = _expert_retrieval_batch(
        expert.encoder, _weights(expert.encoder), store, batch, expert.config.top_k,
        expert.config.weight_temperature,
    )
    return batch[sel], weights.data


def _prepare_gate_batch(
    store: CalibrationStore,
    batch: np.ndarray,
    supports: Sequence[tuple[np.ndarray, np.ndarray]],
    audit: list | None,
) -> _PreparedGateBatch:
    """The gate's input for a batch, from every expert's ``_expert_support`` of it.

    One stable sort of the (B, M*k) block of support positions gives every
    episode's union, in position order, and each expert's weight its slot
    there. Episodes pad their union to a common width with zero-weight
    slots, which contribute nothing to the smooth quantiles.
    """
    B = batch.size
    positions = np.concatenate([pos for pos, _ in supports], axis=1)
    weights = np.concatenate([w for _, w in supports], axis=1)
    expert_of = np.repeat(np.arange(len(supports)), [pos.shape[1] for pos, _ in supports])
    order = np.argsort(positions, axis=1, kind="stable")
    ordered = np.take_along_axis(positions, order, axis=1)
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    slot_of_ordered = np.cumsum(first, axis=1) - 1
    sizes = slot_of_ordered[:, -1] + 1
    width = int(sizes.max())
    rows = np.arange(B)[:, None]
    unions = np.zeros((B, width), dtype=positions.dtype)
    unions[rows, slot_of_ordered] = ordered
    cube = np.zeros((B, width, len(supports)))
    cube[rows, slot_of_ordered, expert_of[order]] = np.take_along_axis(weights, order, axis=1)
    filled = np.arange(width) < sizes[:, None]
    store_residuals = store.residuals()
    residuals = np.zeros((B, width))
    residuals[filled] = store_residuals[unions[filled]]
    if audit is not None:
        ds_id = store.descriptor.dataset_id
        audit.extend((ds_id, int(j), unions[row, : sizes[row]]) for row, j in enumerate(batch))
    perm = np.argsort(residuals, axis=1, kind="stable")
    residuals_sorted = np.take_along_axis(residuals, perm, axis=1)
    return _PreparedGateBatch(
        inputs=encoder_inputs(_batch_contexts(store, batch), store.features),
        weight_cube=cube,
        residuals_sorted=residuals_sorted,
        sort_perm=perm,
        targets=store_residuals[batch],
    )


def gate_batch_loss(
    gate: GateParams,
    params: list[Tensor],
    prepared: list[_PreparedGateBatch],
    alpha_grid: np.ndarray,
    tau_q: float,
    tau_p: float,
    lambda_entropy: float,
) -> Tensor:
    """Gate objective in ``params``, ``leaves(gate)``: interval loss minus the entropy bonus."""
    per_ds_losses: list[Tensor] = []
    per_ds_entropy: list[Tensor] = []
    for prep in prepared:
        logits = ad.mlp(zip(params[::2], params[1::2]), prep.inputs, gate.activation)
        pi = ad.softmax_rows(ad.transpose(logits), 1.0)
        mixed = ad.batched_mix(ad.constant(prep.weight_cube), pi)
        mixed_sorted = ad.gather_rows(mixed, prep.sort_perm)
        loss_vec = ad.smooth_winkler_grid(
            mixed_sorted,
            prep.residuals_sorted,
            prep.targets,
            alpha_grid,
            tau_q,
            tau_p,
        )
        log_pi = ad.log(ad.add_const(pi, 1e-30))
        n_experts = pi.data.shape[1]
        entropy_vec = ad.scale(
            ad.matmul(ad.mul(pi, log_pi), ad.constant(np.ones(n_experts))), -1.0
        )
        per_ds_losses.append(ad.reduce_mean(loss_vec))
        per_ds_entropy.append(ad.reduce_mean(entropy_vec))
    return ad.add(
        _stack_mean(per_ds_losses),
        ad.scale(_stack_mean(per_ds_entropy), -lambda_entropy),
    )


def optimizer_step(optimizer: Adam, loss_fn: Callable[[], Tensor | None]) -> float:
    """One step of ``optimizer`` on the loss ``loss_fn`` builds on a fresh tape.

    Returns the loss, or NaN when ``loss_fn`` builds none (every batch was
    skipped), in which case nothing is stepped. A non-finite loss raises
    ``NumericError`` before any parameter moves.
    """
    optimizer.zero_grad()
    with Tape() as tape:
        total = loss_fn()
    if total is None:
        return math.nan
    value = float(total.data)
    if not math.isfinite(value):
        raise NumericError("training loss is not finite")
    tape.backward(total)
    del tape, total  # the step needs only the gradients, not what the tape holds
    optimizer.step()
    return value


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogRow:
    stage: str
    epoch: int
    mean_loss: float
    tau_q: float


@dataclass(frozen=True)
class _Run:
    """One optimisation run of a stage.

    ``params`` are the ``leaves`` of the model the run trains.
    ``epoch_batches()`` gives one epoch's batches, and ``loss(batch, tau_q)``
    builds the objective on one of them, or None to skip it, writing the
    supports it retrieves to the run's own ``audit`` buffer, if any. The
    run's tau_q schedule spans ``epochs * steps_per_epoch`` steps.
    """

    params: list[Tensor]
    lr: float
    steps_per_epoch: int
    epoch_batches: Callable[[], list]
    loss: Callable[[object, float], Tensor | None]
    audit: list | None = None


# ---------------------------------------------------------------------------
# the process: allocator, BLAS threads and training workers
# ---------------------------------------------------------------------------


# glibc mallopt parameters and the values training sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 256 << 20
_heap_kept = False


def keep_freed_heap() -> bool:
    """Keep memory that training frees in the process instead of returning it.

    One fit allocates and frees gigabytes of short-lived arrays of 0.5 to
    17 MB. Under glibc's adaptive defaults the freed top of the heap is
    handed back to the OS over and over and faulted in again on the next
    allocation: 15 000 to 25 000 minor page faults per 600-row fit at the
    bench's budget, against under 1 000 with these settings, at a cost
    that follows the host's load. Fixing the mmap threshold at 32 MiB and
    the trim threshold at 256 MiB keeps that memory for reuse; peak RSS
    does not grow. A single malloc arena serves every thread, so what a
    training pool thread frees is reused by whichever thread allocates
    next, serving included, instead of staying held in the pool thread's
    arena.

    The settings are process-wide, applied once, and skipped off glibc.
    They hold for every thread of the process, not only for training: a
    multithreaded caller's threads then all allocate from one arena and
    take turns at its lock. Returns whether they are in effect.
    """
    global _heap_kept
    if not _heap_kept:
        try:
            os.confstr("CS_GNU_LIBC_VERSION")
            mallopt = ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, ValueError):
            return False
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        _heap_kept = bool(
            mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
            and mallopt(_M_ARENA_MAX, 1)
        )
    return _heap_kept


@cache
def _openblas_thread_count_fn():
    """The thread-count function of the OpenBLAS numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn
    return None


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS numpy loaded, or None where it cannot be read.

    It sets how many training tasks run at once (``training_workers``), and
    checkpoint bytes can depend on it (see the README), so reports record
    it. It is only read, never set.
    """
    fn = _openblas_thread_count_fn()
    return None if fn is None else int(fn())


# A fit whose teachers train on fewer leave-one-out episodes than this runs
# its tasks one after another. On 128-row, one-epoch fits, two tasks at a
# time took a fifth to a quarter less time but raised peak RSS by 10 to 19%:
# two runs hold two working sets, and leave the one malloc arena more
# fragmented. Longer fits gain more.
_MIN_CONCURRENT_EPISODES = 256


def training_workers(n_tasks: int, episodes: int) -> int:
    """How many threads run a fit's ``n_tasks`` tasks, its shortest run training on ``episodes``.

    The CPUs this process may use divided by the BLAS thread count, so the
    BLAS threads of concurrent tasks do not outnumber the CPUs, capped at
    ``n_tasks``. A shortest run of fewer than ``_MIN_CONCURRENT_EPISODES``
    leave-one-out episodes, or a count that cannot be read, gives 1: the
    calling thread runs the tasks one after another.
    """
    if n_tasks < 2 or episodes < _MIN_CONCURRENT_EPISODES:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1
    threads = blas_threads()
    if not threads:
        return 1
    return max(1, min(n_tasks, cpus // threads))


class _Schedule:
    """Tasks run in the order they were added, on a pool of threads or the calling thread.

    A task may name tasks added before it, which finish before it starts.
    The pool's threads take tasks in order, so a task a thread waits for has
    already been taken by another, which does not wait on anything later:
    no worker count can deadlock. Once a task fails no thread starts a
    later one, so the tasks that need it never run, while earlier ones still
    do: the first failure in task order is the same on any worker count.
    """

    def __init__(self) -> None:
        self._tasks: list[tuple[Callable[[], object], tuple[int, ...]]] = []
        self._futures: list[Future] = []
        self._pool: ThreadPoolExecutor | None = None
        self._next = 0  # with one worker, the next task ``results`` runs
        self._failed: list[int] = []  # the tasks that raised
        self._closed = False

    def __len__(self) -> int:
        return len(self._tasks)

    def add(self, fn: Callable[[], object], after: Sequence[int] = ()) -> int:
        """Queue ``fn`` to run once the tasks ``after`` have finished; returns its index."""
        if any(not 0 <= i < len(self._tasks) for i in after):
            raise ValueError("a task can only wait for tasks queued before it")
        self._tasks.append((fn, tuple(after)))
        return len(self._tasks) - 1

    def start(self, workers: int) -> None:
        """Start ``workers`` threads on the queued tasks; with one, ``results`` runs them."""
        self._futures = [Future() for _ in self._tasks]
        if min(workers, len(self._tasks)) > 1:
            self._pool = ThreadPoolExecutor(min(workers, len(self._tasks)))
            for i in range(len(self._tasks)):
                self._pool.submit(self._run, i)

    def _run(self, i: int) -> None:
        """Task ``i`` once the tasks it needs have finished, unless stopped before it."""
        fn, after = self._tasks[i]
        wait([self._futures[j] for j in after])
        try:  # stopped: closed, or an earlier task has failed, perhaps one of ``after``
            stopped = self._closed or any(j < i for j in self._failed)
            self._futures[i].set_result(None if stopped else fn())
        except BaseException as exc:
            self._failed.append(i)
            self._futures[i].set_exception(exc)

    def results(self, ids: Sequence[int]) -> list:
        """The results of tasks ``ids``, in that order, once they have finished.

        If a task has failed, the threads are stopped and the first failure
        in task order is raised.
        """
        while self._pool is None and self._next <= max(ids, default=-1):
            self._run(self._next)
            self._next += 1
        wait([self._futures[i] for i in ids])
        if self._failed:
            self.close()
            raise next(exc for exc in map(Future.exception, self._futures) if exc is not None)
        return [self._futures[i].result() for i in ids]

    def close(self) -> None:
        """Start no more tasks and wait for the threads to stop."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()


class Trainer:
    """Three-stage fitting: teachers -> experts (anchored) -> gate (frozen experts)."""

    def __init__(
        self,
        stores: list[CalibrationStore],
        model: ModelConfig,
        train: TrainConfig,
    ):
        if not stores:
            raise DataError("need at least one calibration store")
        for store in stores:
            if store.context_dim != model.context_dim:
                raise DataError(
                    f"store context dim {store.context_dim} does not match "
                    f"model context dim {model.context_dim}"
                )
            if store.descriptor is None or store.normalize != model.normalize_contexts:
                raise DataError(
                    "a training store must be conditioned with normalize="
                    f"{model.normalize_contexts}, as the model reads contexts"
                )
        if model.encoder_kind == "fixed_affine" and len(stores) > 1:
            raise DataError("fixed_affine encoders support a single dataset")
        self.stores = stores
        self.model = model
        self.train = train
        self.alpha_grid = np.asarray(default_alpha_grid())
        self.teachers: list[list[FixedAffineMap]] | None = None
        self.experts: ExpertStack | None = None
        self.gate: GateParams | None = None
        self.log: list[LogRow] = []
        self.audit: list | None = [] if train.audit else None

    # -- scheduling -------------------------------------------------------

    def _schedule(self, total_steps: int) -> TemperatureSchedule:
        cycle = max(1, total_steps // self.train.n_cycles)
        return TemperatureSchedule(
            tau_start=self.train.tau_start,
            tau_end=self.train.tau_end,
            cycle_steps=cycle,
        )

    def _steps_per_epoch(self, stores: list[CalibrationStore]) -> int:
        # one optimizer step per round; a round takes one batch per dataset
        return max(
            max(1, math.ceil(len(store) / self.train.batch_size)) for store in stores
        )

    def _rounds(
        self, stores: list[CalibrationStore], rng: np.random.Generator
    ) -> list[list[np.ndarray]]:
        """One epoch of rounds, each holding one batch per dataset.

        Every dataset is shuffled by ``rng`` in turn; a dataset that runs
        out of batches first gets empty ones for the remaining rounds.
        """
        size = self.train.batch_size
        per_ds = []
        for store in stores:
            positions = rng.permutation(len(store))
            per_ds.append([positions[i : i + size] for i in range(0, len(store), size)])
        empty = np.empty(0, dtype=np.int64)
        return [
            [batches[r] if r < len(batches) else empty for batches in per_ds]
            for r in range(max(len(b) for b in per_ds))
        ]

    def _train(self, epochs: int, run: _Run) -> list[float | None]:
        """Optimise ``run`` for ``epochs`` epochs; returns its epoch-mean losses.

        The run has its own Adam, tau_q schedule and step counter. A skipped
        batch still takes its step of the schedule but leaves no loss, and an
        epoch of skipped batches has the mean None.
        """
        optimizer = Adam(run.params, lr=run.lr)
        schedule = self._schedule(epochs * run.steps_per_epoch)
        step, means = 0, []
        for _ in range(epochs):
            losses = []
            for batch in run.epoch_batches():
                tau_q = temperature_at(step, schedule)
                loss = optimizer_step(optimizer, partial(run.loss, batch, tau_q))
                if math.isfinite(loss):
                    losses.append(loss)
                step += 1
            means.append(float(np.mean(losses)) if losses else None)
        optimizer.zero_grad()  # a trained model holds its weights only
        return means

    def _log_stage(self, stage: str, epochs: int, runs: list[_Run], per_run: list) -> None:
        """Merge a stage's trained runs in run order, as if they ran one after another.

        Appends each run's audit buffer, and logs one row per epoch in which
        any run had a loss: the mean over runs of each run's epoch-mean loss
        (``per_run``), with the first run's tau_q at the start of the epoch.
        """
        for run in runs:
            if run.audit:
                self.audit.extend(run.audit)
        steps_per_epoch = runs[0].steps_per_epoch
        schedule = self._schedule(epochs * steps_per_epoch)
        for epoch in range(epochs):
            means = [run_means[epoch] for run_means in per_run if run_means[epoch] is not None]
            if means:
                tau_q = temperature_at(epoch * steps_per_epoch, schedule)
                self.log.append(LogRow(stage, epoch, float(np.mean(means)), tau_q))

    def _expert_run(self, encoder, lr, stores, rng, teachers, top_k: int, lambda_anchor: float):
        """A run of ``expert_batch_loss`` on ``encoder`` over the rounds ``rng`` draws."""
        audit = None if self.audit is None else []
        params = leaves(encoder)

        def loss(batches, tau_q):
            return expert_batch_loss(
                encoder, params, stores, batches, teachers, top_k, 1.0 / self.model.beta,
                self.alpha_grid, tau_q, self.train.tau_p, lambda_anchor, audit=audit,
            )

        return _Run(
            params, lr, self._steps_per_epoch(stores),
            partial(self._rounds, stores, rng), loss, audit,
        )

    def _make_encoder(self, m: int):
        """Expert ``m``'s encoder, to be started at its teachers' mean map by ``start_at``."""
        if self.model.encoder_kind == "fixed_affine":
            L, p = self.model.latent_dim, self.model.context_dim
            return FixedAffineMap.from_arrays(np.zeros((L, p)), np.zeros(L))
        return HypernetworkParams(
            context_dim=self.model.context_dim,
            latent_dim=self.model.latent_dim,
            hidden_dim=self.model.hidden_dim,
            hidden_layers=self.model.hidden_layers,
            activation=self.model.activation,
            seed=self.train.seed * 1000 + 500 + m,
        )

    def _queue(self, schedule: _Schedule) -> tuple[Callable, Callable, Callable]:
        """Queue a fit's tasks, each after the tasks it reads, and keep the models they train.

        In task order: one per teacher (m, d); one per expert m, after
        teachers (m, .); one per (gate round, dataset, expert m), the
        expert's leave-one-out supports, after expert m. Returns, per stage,
        a function that waits for its tasks and gives its runs and their
        epoch means, or the gate's prepared batches.
        """
        cfg, model, M, D = self.train, self.model, self.model.n_experts, len(self.stores)
        self.teachers = teachers = [
            [FixedAffineMap(model.context_dim, model.latent_dim,
                            seed=cfg.seed * 1000 + m * 10 + d) for d in range(D)]
            for m in range(M)
        ]
        teacher_runs = [
            self._expert_run(teachers[m][d], cfg.teacher_lr, [store],
                             np.random.default_rng([cfg.seed, 11, m, d]), None, len(store), 0.0)
            for m in range(M)
            for d, store in enumerate(self.stores)
        ]
        teacher_ids = [schedule.add(partial(self._train, cfg.teacher_epochs, run))
                       for run in teacher_runs]
        # stacked before any task runs, so the experts train in the arrays that
        # serve and save them; an encoder made between two runs took its place
        # among their freed temporaries, which raised the peak RSS of a serving
        # fit by 4 MB
        self.experts = experts = ExpertStack.of([
            RetrievalExpert(encoder=self._make_encoder(m), config=model.expert_config())
            for m in range(M)
        ])

        def fit_expert(m: int) -> tuple[_Run, list]:
            maps = [(t.A, t.b) for t in teachers[m]]
            encoder = experts[m].encoder
            encoder.start_at(np.mean([a for a, _ in maps], axis=0),
                             np.mean([b for _, b in maps], axis=0))
            run = self._expert_run(
                encoder, cfg.student_lr, self.stores, np.random.default_rng([cfg.seed, 22, m]),
                maps, model.top_k, cfg.lambda_anchor,
            )
            return run, self._train(cfg.epochs, run)

        expert_ids = [schedule.add(partial(fit_expert, m), teacher_ids[m * D : (m + 1) * D])
                      for m in range(M)]
        rng = np.random.default_rng([cfg.seed, 33])
        rounds = [
            [
                (store, batch, [
                    schedule.add(partial(_expert_support, expert, store, batch), (i,))
                    for expert, i in zip(experts, expert_ids)
                ])
                for store, batch in zip(self.stores, batches)
                if _valid_batch(batch)
            ]
            for batches in self._rounds(self.stores, rng)
        ]
        return (
            lambda: (teacher_runs, schedule.results(teacher_ids)),
            lambda: tuple(zip(*schedule.results(expert_ids))),
            lambda: [
                [_prepare_gate_batch(store, batch, schedule.results(ids), self.audit)
                 for store, batch, ids in held]
                for held in rounds
                if held
            ],
        )

    # -- stages -----------------------------------------------------------

    def fit_teachers(self, trained: Callable[[], tuple]) -> None:
        """One dense, unanchored affine teacher per (expert, dataset).

        ``trained`` waits for the teachers' tasks; this returns once they
        are trained, logged and audited, in (expert, dataset) order.
        """
        self._log_stage("teacher", self.train.teacher_epochs, *trained())

    def fit_experts(self, trained: Callable[[], tuple]) -> None:
        """One retrieval expert per teacher row, anchored to those teachers.

        ``trained`` waits for the experts' tasks. Expert m starts as soon as
        its own teachers are trained, in the ``ExpertStack`` that serves it.
        """
        self._log_stage("expert", self.train.epochs, *trained())

    def fit_gate(self, batches: Callable[[], list]) -> None:
        """The gate over the frozen experts, trained on one prepared batch partition.

        ``batches`` waits for the experts' supports of each batch and
        builds the batches from them on this thread, in (round, dataset)
        order; the gate then trains alone.
        """
        cfg = self.train
        # experts are frozen, so one fixed batch partition is prepared once
        # and its leave-one-out supports reused for every gate epoch
        prepared_rounds = batches()
        if not prepared_rounds:
            raise DataError("no usable gate training batches")
        gate = GateParams(
            context_dim=self.model.context_dim,
            n_experts=self.model.n_experts,
            hidden_dim=self.model.gate_hidden_dim,
            activation=self.model.activation,
            seed=cfg.seed * 1000 + 900,
        )
        params = leaves(gate)

        def loss(prepared, tau_q):
            return gate_batch_loss(
                gate, params, prepared, self.alpha_grid, tau_q, cfg.tau_p, cfg.lambda_entropy
            )

        # the gate steps only over the rounds that kept a usable batch, so
        # its tau_q schedule is sized by them
        run = _Run(params, cfg.gate_lr, len(prepared_rounds), lambda: prepared_rounds, loss)
        self._log_stage("gate", cfg.epochs, [run], [self._train(cfg.epochs, run)])
        self.gate = gate

    def run(self) -> "Trainer":
        """All three stages on one schedule: a task starts as soon as what it reads is trained."""
        keep_freed_heap()
        schedule = _Schedule()
        teachers, experts, gate_batches = self._queue(schedule)
        # the shortest run, a teacher's, sets the worker count
        episodes = self.train.teacher_epochs * min(len(store) for store in self.stores)
        schedule.start(training_workers(len(schedule), episodes))
        try:
            self.fit_teachers(teachers)
            self.fit_experts(experts)
            self.fit_gate(gate_batches)
        finally:
            schedule.close()
        return self


def write_training_log(rows: list[LogRow], path) -> None:
    """One CSV line per epoch: stage, epoch, mean loss, current tau_q, BLAS threads.

    The last column is ``blas_threads()`` when the log is written, empty
    where it cannot be read: checkpoint bytes can depend on it (see the
    README), so a log says which thread count its run had. An OS failure
    raises ``DataError``.
    """
    threads = blas_threads()
    threads = "" if threads is None else threads
    lines = ["stage,epoch,mean_loss,tau_q,blas_threads"]
    for row in rows:
        lines.append(
            f"{row.stage},{row.epoch},{row.mean_loss!r},{row.tau_q!r},{threads}"
        )
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write training log {path}: {exc}") from exc
