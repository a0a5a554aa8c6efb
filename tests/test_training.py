import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecp import autodiff as ad
from rarecp.autodiff import Adam
from rarecp.conformal import WeightedSupport, weighted_quantile, winkler_score
from rarecp.data import (
    CalibrationEntry,
    CalibrationStore,
    DatasetDescriptor,
    compute_descriptor,
    descriptor_features,
    encoder_inputs,
)
from rarecp.errors import DataError, NumericError
from rarecp.estimators import RareCP
from rarecp.experts import ExpertConfig, FixedAffineMap, HypernetworkParams, RetrievalExpert
from rarecp.training import (
    ModelConfig,
    TemperatureSchedule,
    TrainConfig,
    Trainer,
    default_alpha_grid,
    expert_batch_loss,
    gate_batch_loss,
    leaves,
    optimizer_step,
    temperature_at,
    write_training_log,
    _batch_contexts,
    _expert_retrieval_batch,
    _expert_support,
    _prepare_gate_batch,
    _Schedule,
    _weights,
    blas_threads,
)


def _sorted_row(support):
    """The support as one (1, s) row of weights and residuals, sorted by residual."""
    order = np.argsort(support.residuals, kind="stable")
    return support.weights[order][None, :], support.residuals[order][None, :]


def smooth_quantile(support, q, tau_q):
    """The sigmoid-CDF relaxed ``q`` quantile of one support."""
    quantiles, *_ = ad.smooth_quantiles(*_sorted_row(support), [q], tau_q)
    return float(quantiles[0, 0])


def smooth_loss(support, target, alphas, tau_q, tau_p):
    """The smooth Winkler score of one support, averaged over ``alphas``."""
    return float(ad.smooth_winkler_grid(*_sorted_row(support), [target], alphas, tau_q, tau_p)
                 .data[0])


def generic_support(rng, n=12, margin=5e-3):
    """Random support whose cumulative boundaries avoid the grid levels.

    The sigmoid-CDF relaxation splits mass between adjacent bins when a
    level sits exactly on a cumulative boundary, so hard-quantile
    convergence holds in general position only.
    """
    levels = np.concatenate(
        [np.asarray(default_alpha_grid()) / 2, 1 - np.asarray(default_alpha_grid()) / 2]
    )
    while True:
        residuals = rng.standard_normal(n)
        weights = rng.random(n) + 0.05
        weights /= weights.sum()
        cum = np.cumsum(weights[np.argsort(residuals, kind="stable")])
        if np.min(np.abs(levels[:, None] - cum[None, :])) > margin:
            return WeightedSupport(residuals, weights)


class TestSmoothQuantile:
    def test_single_item_any_level(self):
        support = WeightedSupport(np.array([2.5]), np.array([1.0]))
        for q in (0.1, 0.5, 0.9):
            for tau in (0.05, 1e-3):
                assert smooth_quantile(support, q, tau) == pytest.approx(2.5)

    def test_converges_to_hard_off_boundary(self):
        support = WeightedSupport(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        # 0.45 is inside the first bin, away from the 0.5 boundary
        smooth = smooth_quantile(support, 0.45, 1e-4)
        assert abs(smooth - weighted_quantile(support, 0.45)) < 1e-3
        smooth_hi = smooth_quantile(support, 0.55, 1e-4)
        assert abs(smooth_hi - weighted_quantile(support, 0.55)) < 1e-3

    def test_exact_boundary_limits_to_bin_midpoint(self):
        # at q exactly on a cumulative boundary the sigmoid relaxation puts
        # half mass on each adjacent bin, so the limit is the midpoint
        support = WeightedSupport(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert smooth_quantile(support, 0.5, 1e-4) == pytest.approx(0.5)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            support = generic_support(rng)
            q = float(rng.uniform(0.05, 0.95))
            tau = float(rng.uniform(1e-4, 0.2))
            value = smooth_quantile(support, q, tau)
            assert support.residuals.min() - 1e-12 <= value <= support.residuals.max() + 1e-12

    def test_monotone_in_level(self):
        rng = np.random.default_rng(1)
        support = generic_support(rng)
        qs = np.linspace(0.05, 0.95, 19)
        values = [smooth_quantile(support, q, 0.01) for q in qs]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


class TestSmoothWinkler:
    def test_converges_to_hard_score(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            support = generic_support(rng)
            target = float(rng.standard_normal())
            alpha = 0.2
            smooth = smooth_loss(support, target, [alpha], 1e-4, 1e-4)
            lo = weighted_quantile(support, alpha / 2)
            hi = weighted_quantile(support, 1 - alpha / 2)
            hard = winkler_score(lo, hi, target, alpha)
            assert abs(smooth - hard) < 1e-3

    def test_interior_target_small_penalty(self):
        support = WeightedSupport(
            np.array([-2.0, -1.0, 1.0, 2.0]), np.array([0.25, 0.25, 0.25, 0.25])
        )
        value = smooth_loss(support, 0.0, [0.2], 0.01, 1e-3)
        lo = smooth_quantile(support, 0.1, 0.01)
        hi = smooth_quantile(support, 0.9, 0.01)
        assert value == pytest.approx(hi - lo, abs=1e-2)

    def test_gradient_wrt_scores_matches_fd(self):
        from rarecp.gradcheck import smooth_pipeline_check

        assert smooth_pipeline_check(seed=0) < 1e-3


class TestAlphaGridLoss:
    def test_singleton_grid_equals_smooth_winkler(self):
        # one level: Qs(1 - a/2) - Qs(a/2) + (2/a) * softplus penalties at tau_p
        rng = np.random.default_rng(3)
        support = generic_support(rng)
        lo, hi = smooth_quantile(support, 0.1, 0.05), smooth_quantile(support, 0.9, 0.05)
        penalties = sum(1e-3 * np.logaddexp(0.0, z / 1e-3) for z in (lo - 0.3, 0.3 - hi))
        assert smooth_loss(support, 0.3, [0.2], 0.05, 1e-3) == pytest.approx(
            hi - lo + (2 / 0.2) * penalties
        )

    def test_identical_levels_equal_one_level(self):
        rng = np.random.default_rng(4)
        support = generic_support(rng)
        assert smooth_loss(support, 0.1, [0.2, 0.2, 0.2], 0.05, 1e-3) == pytest.approx(
            smooth_loss(support, 0.1, [0.2], 0.05, 1e-3)
        )

    def test_default_grid_is_mean_of_levels(self):
        rng = np.random.default_rng(5)
        support = generic_support(rng)
        grid = default_alpha_grid()
        by_hand = np.mean([smooth_loss(support, 0.4, [a], 0.03, 1e-3) for a in grid])
        assert smooth_loss(support, 0.4, grid, 0.03, 1e-3) == pytest.approx(by_hand, rel=1e-12)

    def test_default_grid_levels(self):
        grid = default_alpha_grid()
        assert len(grid) == 11
        assert grid[0] == pytest.approx(0.10)
        assert grid[5] == pytest.approx(0.20)
        assert grid[-1] == pytest.approx(0.30)


class TestTemperatureSchedule:
    def test_start_peak(self):
        schedule = TemperatureSchedule(0.05, 1e-4, 100)
        assert temperature_at(0, schedule) == 0.05

    def test_trough_exact(self):
        schedule = TemperatureSchedule(0.05, 1e-4, 100)
        assert temperature_at(50, schedule) == 1e-4

    def test_periodic(self):
        schedule = TemperatureSchedule(0.05, 1e-4, 64)
        for step in (0, 3, 17, 40):
            assert temperature_at(step, schedule) == temperature_at(step + 64, schedule)

    def test_between_bounds(self):
        schedule = TemperatureSchedule(0.05, 1e-4, 10)
        for step in range(25):
            tau = temperature_at(step, schedule)
            assert 1e-4 <= tau <= 0.05


def training_store(contexts, residuals, dataset_id=0, normalize=True):
    """A store of every row, conditioned the way ``RareCP.fit`` conditions its training store."""
    store = CalibrationStore.from_arrays(contexts, residuals)
    store.condition(compute_descriptor(store.contexts(), dataset_id), normalize)
    return store


def tiny_store(rng, n=24, dim=5, regime=True):
    contexts = rng.standard_normal((n, dim))
    scale = 1.0 + 3.0 * (contexts[:, 0] > 0) if regime else 1.0
    residuals = rng.standard_normal(n) * scale
    return training_store(contexts, residuals)


def step_tape_records(monkeypatch, params, loss_fn) -> int:
    """The tape records of one ``optimizer_step`` of the leaves ``params`` on ``loss_fn``."""
    recorded = []
    backward = ad.Tape.backward

    def counting_backward(self, loss):
        recorded.append(len(self.records))
        return backward(self, loss)

    monkeypatch.setattr(ad.Tape, "backward", counting_backward)
    optimizer_step(Adam(params, lr=1e-3), loss_fn)
    assert len(recorded) == 1
    return recorded[0]


def tiny_model(dim=5):
    return ModelConfig(
        n_experts=2, latent_dim=4, top_k=6, hidden_dim=8, hidden_layers=1,
        gate_hidden_dim=2, window=dim, include_forecast=False,
    )


class TestTeacherFitting:
    def test_loss_decreases(self):
        rng = np.random.default_rng(6)
        store = tiny_store(rng, n=60)
        trainer = Trainer([store], tiny_model(), TrainConfig(
            epochs=2, teacher_epochs=8, batch_size=30, seed=0))
        trainer.run()
        rows = [r for r in trainer.log if r.stage == "teacher"]
        assert rows[-1].mean_loss < rows[0].mean_loss

    def test_teachers_differ_across_experts(self):
        rng = np.random.default_rng(7)
        store = tiny_store(rng, n=40)
        trainer = Trainer([store], tiny_model(), TrainConfig(
            epochs=1, teacher_epochs=2, batch_size=20, seed=0))
        trainer.run()
        assert not np.allclose(trainer.teachers[0][0].A, trainer.teachers[1][0].A)

    def test_rerun_is_deterministic(self):
        rng_data = np.random.default_rng(8)
        contexts = rng_data.standard_normal((30, 5))
        residuals = rng_data.standard_normal(30)

        def fit():
            store = training_store(contexts, residuals)
            trainer = Trainer([store], tiny_model(), TrainConfig(
                epochs=1, teacher_epochs=3, batch_size=16, seed=5))
            trainer.run()
            teacher = trainer.teachers[0][0]
            return teacher.A, teacher.b

        (a1, b1), (a2, b2) = fit(), fit()
        assert a1.tobytes() == a2.tobytes()
        assert b1.tobytes() == b2.tobytes()


class TestExpertTraining:
    def test_strong_anchor_pulls_to_teacher(self):
        rng = np.random.default_rng(9)
        store = tiny_store(rng, n=20)
        encoder = HypernetworkParams(5, 4, hidden_dim=8, hidden_layers=1, seed=0)
        teacher = (rng.normal(0, 0.5, size=(4, 5)), rng.normal(0, 0.5, size=4))
        params = leaves(encoder)
        opt = Adam(params, lr=3e-3)
        alphas = np.asarray(default_alpha_grid())
        batch = np.arange(20)

        def anchor_value():
            inputs = encoder_inputs(store.key_inputs()[:-1], store.features)
            out = ad.mlp_forward(encoder.layers, inputs, encoder.activation)[-1]
            flat = np.concatenate([teacher[0].reshape(-1), teacher[1]])
            return float(((out - flat[:, None]) ** 2).sum() / 20)

        initial = anchor_value()
        for _ in range(150):
            optimizer_step(opt, lambda: expert_batch_loss(
                encoder, params, [store], [batch], [teacher],
                top_k=6, temperature=1 / 12, alpha_grid=alphas,
                tau_q=0.05, tau_p=5e-4, lambda_anchor=1e5,
            ))
        assert anchor_value() < 0.01 * initial

    def test_zero_anchor_is_pure_interval_term(self):
        rng = np.random.default_rng(10)
        store = tiny_store(rng, n=16)
        encoder = HypernetworkParams(5, 4, hidden_dim=8, hidden_layers=1, seed=1)
        teacher = (np.ones((4, 5)), np.ones(4))
        alphas = np.asarray(default_alpha_grid())
        batch = np.arange(16)
        params = leaves(encoder)
        with_teacher = expert_batch_loss(
            encoder, params, [store], [batch], [teacher],
            top_k=6, temperature=1 / 12, alpha_grid=alphas,
            tau_q=0.05, tau_p=5e-4, lambda_anchor=0.0,
        )
        without = expert_batch_loss(
            encoder, params, [store], [batch], None,
            top_k=6, temperature=1 / 12, alpha_grid=alphas,
            tau_q=0.05, tau_p=5e-4, lambda_anchor=5.0,
        )
        assert float(with_teacher.data) == pytest.approx(float(without.data))

    def test_step_tape_stays_fused(self, monkeypatch):
        """One hypernetwork step records nine tape records, its MLP and its
        anchor one each; a loss built from one primitive chain per quantile
        level records over 500."""
        rng = np.random.default_rng(19)
        store = tiny_store(rng, n=40)
        encoder = HypernetworkParams(5, 4, hidden_dim=8, hidden_layers=2, seed=0)
        teacher = (rng.normal(0, 0.5, size=(4, 5)), rng.normal(0, 0.5, size=4))
        params = leaves(encoder)
        recorded = step_tape_records(monkeypatch, params, lambda: expert_batch_loss(
            encoder, params, [store], [np.arange(40)], [teacher], top_k=8, temperature=1 / 12,
            alpha_grid=np.asarray(default_alpha_grid()), tau_q=0.05, tau_p=5e-4,
            lambda_anchor=5.0,
        ))
        assert recorded <= 9

    def test_full_loss_gradient_fidelity_small(self):
        from rarecp.gradcheck import expert_loss_check

        assert expert_loss_check(seed=0, n_episodes=8, n_experts=1, context_dim=4) < 1e-3

    def test_small_batches_skipped_with_warning(self):
        rng = np.random.default_rng(11)
        store = tiny_store(rng, n=8)
        encoder = HypernetworkParams(5, 4, hidden_dim=8, hidden_layers=1, seed=0)
        alphas = np.asarray(default_alpha_grid())
        with pytest.warns(UserWarning, match="fewer"):
            loss = expert_batch_loss(
                encoder, leaves(encoder), [store], [np.array([0, 1])], None,
                top_k=4, temperature=0.1, alpha_grid=alphas,
                tau_q=0.05, tau_p=5e-4, lambda_anchor=0.0,
            )
        assert loss is None


def prepare_gate_batch(experts, store, batch, audit):
    supports = [_expert_support(expert, store, batch) for expert in experts]
    return _prepare_gate_batch(store, batch, supports, audit)


class TestGateTraining:
    def _trained_experts(self, rng, store, model):
        return Trainer([store], model, TrainConfig(
            epochs=2, teacher_epochs=1, batch_size=16, seed=0)).run()

    def test_experts_frozen_during_gate_training(self, monkeypatch):
        snapshots = []
        fit_gate = Trainer.fit_gate

        def snapshot(trainer):
            snapshots.append([a.tobytes() for e in trainer.experts for a in _weights(e.encoder)])

        def snapshotting_fit_gate(trainer, *args):
            snapshot(trainer)
            fit_gate(trainer, *args)
            snapshot(trainer)

        monkeypatch.setattr(Trainer, "fit_gate", snapshotting_fit_gate)
        rng = np.random.default_rng(12)
        store = tiny_store(rng, n=24)
        self._trained_experts(rng, store, tiny_model())
        before, after = snapshots
        assert before == after

    def test_large_entropy_weight_keeps_gate_uniform(self):
        rng = np.random.default_rng(13)
        store = tiny_store(rng, n=24)
        model = tiny_model()
        trainer = self._trained_experts(rng, store, model)
        from rarecp.gate import GateParams, gate_weights

        gate = GateParams(5, model.n_experts, hidden_dim=2, seed=3)
        params = leaves(gate)
        opt = Adam(params, lr=0.05)
        alphas = np.asarray(default_alpha_grid())
        batch = np.arange(24)
        prepared = [prepare_gate_batch(trainer.experts, store, batch, None)]
        for _ in range(60):
            optimizer_step(opt, lambda: gate_batch_loss(gate, params, prepared, alphas, 0.05,
                                                        5e-4, 50.0))
        entropies = []
        for i in range(24):
            pi = gate_weights(gate, *store.query(store.contexts()[i]))
            entropies.append(-np.sum(pi * np.log(pi + 1e-30)))
            assert 0.0 <= entropies[-1] <= np.log(model.n_experts) + 1e-12
        assert np.mean(entropies) > 0.9 * np.log(model.n_experts)

    def test_step_tape_stays_fused(self, monkeypatch):
        """One gate step records its MLP as one tape record."""
        rng = np.random.default_rng(14)
        store = tiny_store(rng, n=24)
        model = tiny_model()
        trainer = self._trained_experts(rng, store, model)
        from rarecp.gate import GateParams

        gate = GateParams(5, model.n_experts, hidden_dim=2, seed=3)
        prepared = [prepare_gate_batch(trainer.experts, store, np.arange(24), None)]
        alphas = np.asarray(default_alpha_grid())
        params = leaves(gate)
        recorded = step_tape_records(
            monkeypatch, params,
            lambda: gate_batch_loss(gate, params, prepared, alphas, 0.05, 5e-4, 0.02),
        )
        assert recorded <= 15

    @pytest.mark.parametrize("top_ks", [None, (3, 7)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_prepared_batch_equals_per_row_unions(self, top_ks, workers):
        """Every field, and the audit trail, equals the construction from a
        per-row ``np.unique`` and a per-(row, expert) ``searchsorted``."""
        rng = np.random.default_rng(24)
        store = tiny_store(rng, n=40)
        experts = self._trained_experts(rng, store, tiny_model()).experts
        if top_ks is not None:  # supports of different sizes
            experts = [RetrievalExpert(e.encoder, ExpertConfig(top_k=k, beta=12.0))
                       for e, k in zip(experts, top_ks)]
        batch = rng.permutation(40)[:30]
        audit = []
        # the supports come from concurrent tasks, as in a fit
        supports = run_schedule([(partial(_expert_support, e, store, batch), ()) for e in experts],
                                workers)
        got = _prepare_gate_batch(store, batch, supports, audit)

        positions, weights = [], []
        for expert in experts:
            sel, w, _ = _expert_retrieval_batch(
                expert.encoder, _weights(expert.encoder), store, batch, expert.config.top_k,
                expert.config.weight_temperature)
            positions.append(batch[sel])
            weights.append(w.data)
        unions = [np.unique(np.concatenate([p[row] for p in positions]))
                  for row in range(batch.size)]
        cube = np.zeros((batch.size, max(u.size for u in unions), len(experts)))
        residuals = np.zeros(cube.shape[:2])
        for row, union in enumerate(unions):
            residuals[row, : union.size] = store.residuals()[union]
            for m in range(len(experts)):
                cube[row, np.searchsorted(union, positions[m][row]), m] = weights[m][row]
        perm = np.argsort(residuals, axis=1, kind="stable")
        want = {
            "inputs": encoder_inputs(_batch_contexts(store, batch), store.features),
            "weight_cube": cube,
            "residuals_sorted": np.take_along_axis(residuals, perm, axis=1),
            "sort_perm": perm,
            "targets": store.residuals()[batch],
        }
        for field in fields(got):
            value = getattr(got, field.name)
            assert value.dtype == want[field.name].dtype, field.name
            assert value.shape == want[field.name].shape, field.name
            assert value.tobytes() == want[field.name].tobytes(), field.name
        assert [(d, j, u.dtype, u.tobytes()) for d, j, u in audit] == [
            (0, int(j), u.dtype, u.tobytes()) for j, u in zip(batch, unions)
        ]

    def test_gate_gradient_fidelity(self):
        from rarecp.gradcheck import gate_loss_check

        assert gate_loss_check(seed=0, n_episodes=8, n_experts=2, context_dim=4) < 1e-3


class TestTeacherObjective:
    def test_fixed_affine_gradient_fidelity(self):
        """Dense fixed-affine objective, unanchored and teacher-anchored, vs central differences."""
        from rarecp.gradcheck import PIPELINE_TOL, teacher_loss_check

        assert teacher_loss_check(seed=0) < PIPELINE_TOL
        assert teacher_loss_check(seed=1, n_episodes=8, context_dim=4) < PIPELINE_TOL

    def test_gradcheck_command_reports_teacher_row(self, capsys):
        from rarecp.cli import main

        assert main(["gradcheck", "--seed", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(row.split()[:2] == ["ok", "teacher_loss"] for row in rows)


class TestStageRunnerLog:
    """``Trainer._log_stage`` writes one finite log row per (stage, epoch)."""

    def test_skipped_batch_leaves_finite_rows_at_scheduled_tau(self):
        rng = np.random.default_rng(21)
        store = tiny_store(rng, n=34)  # batches of 16, 16 and 2; the 2 is skipped
        cfg = TrainConfig(epochs=3, teacher_epochs=2, batch_size=16, n_cycles=1, seed=2)
        trainer = Trainer([store], tiny_model(), cfg)
        with pytest.warns(UserWarning, match="fewer"):
            trainer.run()
        steps_per_epoch = 3
        for stage, epochs in (("teacher", 2), ("expert", 3), ("gate", 3)):
            rows = [r for r in trainer.log if r.stage == stage]
            assert [r.epoch for r in rows] == list(range(epochs))
            assert all(np.isfinite(r.mean_loss) for r in rows)
            schedule = TemperatureSchedule(cfg.tau_start, cfg.tau_end, epochs * steps_per_epoch)
            for row in rows:
                assert row.tau_q == temperature_at(row.epoch * steps_per_epoch, schedule)
        assert len({r.tau_q for r in trainer.log if r.stage == "expert"}) == 3

    def test_gate_logs_the_tau_q_it_steps_at(self, monkeypatch):
        from rarecp import training

        stepped = []

        def recording_loss(gate, params, prepared, alpha_grid, tau_q, *args):
            stepped.append(tau_q)
            return gate_batch_loss(gate, params, prepared, alpha_grid, tau_q, *args)

        monkeypatch.setattr(training, "gate_batch_loss", recording_loss)
        rng = np.random.default_rng(21)
        store = tiny_store(rng, n=34)  # rounds of 16, 16 and 2 rows; the last is dropped
        cfg = TrainConfig(epochs=3, teacher_epochs=1, batch_size=16, n_cycles=1, seed=2)
        trainer = Trainer([store], tiny_model(), cfg)
        with pytest.warns(UserWarning, match="fewer"):
            trainer.run()
        # two steps per epoch over one full cosine cycle, ending back near tau_start
        schedule = TemperatureSchedule(cfg.tau_start, cfg.tau_end, 3 * 2)
        assert stepped == [temperature_at(step, schedule) for step in range(6)]
        assert stepped[3] == cfg.tau_end
        rows = [r for r in trainer.log if r.stage == "gate"]
        assert [r.tau_q for r in rows] == stepped[::2]

    def test_teacher_rows_average_over_expert_dataset_runs(self, monkeypatch):
        from rarecp import training

        losses = []  # (optimizer, loss) per step

        def recording_step(optimizer, loss_fn):
            loss = optimizer_step(optimizer, loss_fn)
            losses.append((optimizer, loss))
            return loss

        monkeypatch.setattr(training, "optimizer_step", recording_step)
        rng = np.random.default_rng(22)
        ds1 = tiny_store(rng, n=20)  # 2 steps per epoch
        ds2 = training_store(rng.standard_normal((22, 5)),
                             rng.standard_normal(22), 1)  # 3 steps, last skipped
        cfg = TrainConfig(epochs=1, teacher_epochs=3, batch_size=10, n_cycles=2, seed=3)
        trainer = Trainer([ds1, ds2], tiny_model(), cfg)
        with pytest.warns(UserWarning, match="fewer"):
            trainer.run()

        # a run is known by its teacher's parameters: runs may step at the same time
        runs = {id(t.A): [] for row in trainer.teachers for t in row}
        for optimizer, loss in losses:
            leaf = optimizer.params[0].data  # the leaf wraps the teacher's array itself
            if id(leaf) in runs:  # not an expert's or the gate's step
                runs[id(leaf)].append(loss)
        per_run = list(runs.values())
        steps = [2, 3, 2, 3]  # runs in (expert, dataset) order
        assert [len(run) for run in per_run] == [3 * s for s in steps]
        rows = [r for r in trainer.log if r.stage == "teacher"]
        assert [r.epoch for r in rows] == [0, 1, 2]
        for row in rows:
            means = []
            for run, s in zip(per_run, steps):
                epoch = np.asarray(run[row.epoch * s : (row.epoch + 1) * s])
                means.append(float(np.mean(epoch[np.isfinite(epoch)])))
            assert row.mean_loss == pytest.approx(np.mean(means), rel=1e-14)
            assert row.mean_loss != pytest.approx(means[0], rel=1e-6)
            # the first run's schedule: 3 epochs of 2 steps in 2 cycles
            schedule = TemperatureSchedule(cfg.tau_start, cfg.tau_end, 3 * 2 // 2)
            assert row.tau_q == temperature_at(row.epoch * 2, schedule)


class TestPipeline:
    def test_loo_exclusion_audited(self):
        rng = np.random.default_rng(15)
        store = tiny_store(rng, n=20)
        trainer = Trainer([store], tiny_model(), TrainConfig(
            epochs=2, teacher_epochs=1, batch_size=10, seed=0, audit=True))
        trainer.run()
        assert trainer.audit, "audit trail should not be empty"
        for _, query_position, support in trainer.audit:
            assert query_position not in support

    def test_same_seed_identical_checkpoints(self, tmp_path):
        from rarecp.checkpoint import components_from_trainer, save_checkpoint

        rng_data = np.random.default_rng(16)
        contexts = rng_data.standard_normal((30, 5))
        residuals = rng_data.standard_normal(30)

        def run(path):
            store = training_store(contexts, residuals)
            trainer = Trainer([store], tiny_model(), TrainConfig(
                epochs=2, teacher_epochs=1, batch_size=16, seed=21)).run()
            save_checkpoint(components_from_trainer(trainer), path)

        run(tmp_path / "a.json")
        run(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_training_improves_on_regime_data(self, small_trained):
        rows = [r for r in small_trained["trainer"].log if r.stage == "expert"]
        assert rows[-1].mean_loss < rows[0].mean_loss

    def test_multi_dataset_training_runs(self):
        rng = np.random.default_rng(17)
        ds1 = tiny_store(rng, n=20)
        contexts = rng.standard_normal((14, 5))
        ds2 = training_store(contexts, rng.standard_normal(14), 1)
        trainer = Trainer([ds1, ds2], tiny_model(), TrainConfig(
            epochs=1, teacher_epochs=1, batch_size=10, seed=0)).run()
        assert trainer.gate is not None
        assert len(trainer.teachers[0]) == 2

    def test_fixed_affine_multi_dataset_rejected(self):
        rng = np.random.default_rng(18)
        ds1, ds2 = tiny_store(rng), tiny_store(rng)
        model = ModelConfig(
            n_experts=1, latent_dim=4, encoder_kind="fixed_affine",
            window=5, include_forecast=False,
        )
        with pytest.raises(DataError):
            Trainer([ds1, ds2], model, TrainConfig())

    def test_unconditioned_and_mismatched_stores_rejected(self):
        rng = np.random.default_rng(23)
        contexts, residuals = rng.standard_normal((20, 5)), rng.standard_normal(20)
        raw = CalibrationStore.from_arrays(contexts, residuals)
        with pytest.raises(DataError, match="conditioned"):
            Trainer([raw], tiny_model(), TrainConfig())
        z_scored = training_store(contexts, residuals, normalize=True)
        unscaled = training_store(contexts, residuals, normalize=False)
        raw_model = replace(tiny_model(), normalize_contexts=False)
        for stores, model in (([unscaled], tiny_model()), ([z_scored], raw_model),
                              ([z_scored, unscaled], tiny_model())):
            with pytest.raises(DataError, match="normalize"):
                Trainer(stores, model, TrainConfig())
        Trainer([unscaled], raw_model, TrainConfig())

    def test_training_log_written(self, small_trained, tmp_path):
        path = tmp_path / "log.csv"
        write_training_log(small_trained["trainer"].log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "stage,epoch,mean_loss,tau_q,blas_threads"
        stages = {line.split(",")[0] for line in lines[1:]}
        assert stages == {"teacher", "expert", "gate"}

    def test_gate_prep_keeps_loo_exclusion(self, small_trained):
        store = small_trained["store"]
        experts = small_trained["trainer"].experts
        audit = []
        batch = np.arange(min(16, len(store)))
        prepare_gate_batch(experts, store, batch, audit)
        for _, query_position, support in audit:
            assert query_position not in support


class TestTrainingReads:
    """Training reads each batch through the store exactly as the per-dataset
    formulas it replaced computed it, bytes and memory layout included."""

    @given(
        n=st.integers(3, 40), dim=st.integers(1, 6), normalize=st.booleans(),
        dataset_id=st.integers(0, 3), appended=st.integers(0, 30), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_store_reads_equal_the_per_dataset_formulas(
        self, n, dim, normalize, dataset_id, appended, seed
    ):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n + appended, dim)) * rng.uniform(0.1, 5.0, dim)
        y = rng.standard_normal(n + appended)
        store = training_store(X[:n], y[:n], dataset_id, normalize)
        descriptor = compute_descriptor(X[:n], dataset_id)
        if appended:
            store.key_inputs()  # kept by every append from here on
        for t in range(n, n + appended):  # the ring wraps: chronological != ring order
            store.append(CalibrationEntry(X[t], float(y[t]), t))
        window, residuals = X[appended:], y[appended:]
        contexts = (window - descriptor.mu) / descriptor.sigma if normalize else window
        feats = descriptor_features(descriptor)
        batch = rng.permutation(n)[: rng.integers(1, n + 1)]
        want_t = np.ascontiguousarray(contexts[batch].T)
        want_inputs = np.concatenate([contexts[batch], np.tile(feats, (batch.size, 1))], 1).T

        got_t = _batch_contexts(store, batch)
        got_inputs = encoder_inputs(got_t, store.features)
        assert store.features.tobytes() == feats.tobytes()
        assert store.residuals()[batch].tobytes() == residuals[batch].tobytes()
        for got, want in ((got_t, want_t), (got_inputs, want_inputs)):
            assert got.tobytes(order="A") == want.tobytes(order="A")
            assert got.strides == want.strides
        assert got_t.flags.c_contiguous and got_inputs.flags.f_contiguous


class TestBatchedEquivalence:
    def test_batched_retrieval_matches_per_episode(self):
        """The episode-parallel path must reproduce literal leave-one-out
        retrieval: emit the query's map, key every candidate, take top-k,
        softmax the selected scores."""
        from rarecp.experts import normalize_keys, topk_retrieve
        from rarecp.training import _expert_retrieval_batch

        rng = np.random.default_rng(20)
        store = tiny_store(rng, n=14)
        encoder = HypernetworkParams(5, 4, hidden_dim=8, hidden_layers=1, seed=3,
                                     final_weight_scale=0.2)
        batch = np.arange(14)
        k, temperature = 5, 0.2
        sel, weights, _ = _expert_retrieval_batch(encoder, _weights(encoder), store, batch, k,
                                                  temperature)

        for j in batch:
            cand = batch[batch != j]
            query_z, feats = store.query(store.contexts()[j])
            A, b = encoder.emit(query_z, feats)
            maps = np.concatenate([A, b[:, None]], axis=1)[None]
            keyed = CalibrationStore.from_arrays(store.key_inputs()[:-1, cand].T, np.zeros(13))
            keyed.condition(DatasetDescriptor(0, np.zeros(5), np.ones(5), 0.0), normalize=False)
            positions, scores = normalize_keys(maps, query_z, keyed, [13])
            assert positions.tolist() == list(range(13))
            scores = scores[0]
            naive_sel = cand[topk_retrieve(scores, k)]
            naive_weights = ad.softmax_rows(
                scores[topk_retrieve(scores, k)][None], temperature
            ).data[0]
            row = list(batch).index(j)
            np.testing.assert_array_equal(np.sort(batch[sel[row]]), np.sort(naive_sel))
            order_batched = np.argsort(batch[sel[row]], kind="stable")
            order_naive = np.argsort(naive_sel, kind="stable")
            np.testing.assert_allclose(
                weights.data[row][order_batched], naive_weights[order_naive], atol=1e-12
            )


def test_keep_freed_heap_stops_refaulting_freed_arrays():
    """Freed training-sized arrays are reused without page faults, not trimmed away."""
    import resource

    from rarecp.training import keep_freed_heap

    if not keep_freed_heap():
        pytest.skip("allocator settings apply to glibc only")
    assert keep_freed_heap()  # idempotent
    rows = (17 << 20) // 8  # the largest training temporaries are about 17 MB

    def cycle():
        arrays = [np.ones(rows) for _ in range(3)]
        return sum(float(a[-1]) for a in arrays)

    cycle()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        assert cycle() == 3.0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    touched_pages = 5 * 3 * rows * 8 // 4096
    assert faults < touched_pages // 100


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so concurrent tasks interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def run_schedule(tasks, workers):
    """Queue ``(fn, after)`` pairs, run them on ``workers`` threads and return the results."""
    schedule = _Schedule()
    ids = [schedule.add(fn, after) for fn, after in tasks]
    schedule.start(workers)
    try:
        return schedule.results(ids)
    finally:
        schedule.close()


@pytest.mark.usefixtures("fast_switching")
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
class TestSchedule:
    """``training._Schedule``: tasks in order on several threads, each after what it needs."""

    def test_every_task_runs_once_and_results_come_in_task_order(self, workers):
        calls, lock = [], threading.Lock()

        def task(i):
            with lock:
                calls.append(i)
            return i * i

        threads_before = threading.active_count()
        tasks = [(partial(task, i), ()) for i in range(500)]
        assert run_schedule(tasks, workers) == [i * i for i in range(500)]
        assert sorted(calls) == list(range(500))
        assert threading.active_count() == threads_before  # every helper was joined

    def test_a_task_starts_only_after_the_tasks_it_needs_have_finished(self, workers):
        rng = np.random.default_rng(workers)
        n = 300
        needs = [tuple(sorted(set(rng.integers(0, i, size=min(i, 3))))) if i else ()
                 for i in range(n)]
        finished = [threading.Event() for _ in range(n)]
        early = []  # tasks that started before something they need had finished

        def task(i):
            if not all(finished[j].is_set() for j in needs[i]):
                early.append(i)
            total = sum(range(200))  # let other threads run in between
            finished[i].set()
            return i, total

        tasks = [(partial(task, i), needs[i]) for i in range(n)]
        assert run_schedule(tasks, workers) == [(i, sum(range(200))) for i in range(n)]
        assert early == []

    def test_the_first_failure_in_task_order_is_raised_once_every_thread_has_stopped(
        self, workers
    ):
        """Task 5 fails after task 6 has failed; every later task needs task 5.

        No task starts after the first failure, no task needing a failed one
        runs, and no task is still running when the error is raised.
        """
        later_failed = threading.Event()
        ran, running, lock = [], [0], threading.Lock()

        def task(i):
            with lock:
                ran.append(i)
                running[0] += 1
            try:
                if i == 5:
                    if workers > 1:  # another thread runs task 6 meanwhile
                        assert later_failed.wait(timeout=10)
                    raise ValueError(f"task {i}")
                if i == 6:
                    later_failed.set()
                    raise KeyError(f"task {i}")
                return i
            finally:
                with lock:
                    running[0] -= 1

        threads_before = threading.active_count()
        tasks = [(partial(task, i), () if i < 7 else (5,)) for i in range(40)]
        with pytest.raises(ValueError, match="task 5"):
            run_schedule(tasks, workers)
        assert running == [0]
        assert threading.active_count() == threads_before
        assert sorted(ran) == list(range(7 if workers > 1 else 6))


def test_a_task_waits_only_for_tasks_queued_before_it():
    """A task cannot wait for itself or a later task, which could deadlock."""
    schedule = _Schedule()
    first = schedule.add(lambda: 1)
    for after in ((first + 1,), (-1,)):
        with pytest.raises(ValueError, match="queued before"):
            schedule.add(lambda: 2, after=after)
    schedule.start(1)
    try:
        assert schedule.results([first]) == [1]
    finally:
        schedule.close()


def test_one_worker_runs_the_tasks_on_the_calling_thread_when_asked():
    """A serial schedule starts no thread: ``results`` runs the tasks up to the last it needs."""
    ran = []
    schedule = _Schedule()
    ids = [schedule.add(partial(ran.append, i)) for i in range(4)]
    threads_before = threading.active_count()
    schedule.start(1)
    try:
        assert ran == [] and threading.active_count() == threads_before
        schedule.results(ids[1:2])
        assert ran == [0, 1]
        schedule.results(ids)
        assert ran == [0, 1, 2, 3] and threading.active_count() == threads_before
    finally:
        schedule.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_expert_run_stops_the_fit(monkeypatch, workers):
    """An expert's ``NumericError`` leaves ``Trainer.run`` once every pool
    thread has stopped, and the gate never starts."""
    from rarecp import training

    encoders, gate_losses = [], []
    make_encoder = Trainer._make_encoder

    def recording_make_encoder(trainer, m):
        encoders.append(make_encoder(trainer, m))
        return encoders[-1]

    def failing_loss(encoder, *args, **kwargs):
        if encoder is encoders[1]:
            raise NumericError("expert 1 diverged")
        return expert_batch_loss(encoder, *args, **kwargs)

    def recording_gate_loss(*args):
        gate_losses.append(args)
        return gate_batch_loss(*args)

    monkeypatch.setattr(Trainer, "_make_encoder", recording_make_encoder)
    monkeypatch.setattr(training, "expert_batch_loss", failing_loss)
    monkeypatch.setattr(training, "gate_batch_loss", recording_gate_loss)
    monkeypatch.setattr(training, "training_workers", lambda n_tasks, episodes: workers)
    rng = np.random.default_rng(25)
    trainer = Trainer([tiny_store(rng, n=40)], tiny_model(), TrainConfig(
        epochs=2, teacher_epochs=1, batch_size=20, seed=0))
    threads_before = threading.active_count()
    with pytest.raises(NumericError, match="expert 1 diverged"):
        trainer.run()
    assert threading.active_count() == threads_before
    assert gate_losses == [] and trainer.gate is None


_HELPER_FREES_SCRIPT = """
import resource, threading
import numpy as np
from rarecp.training import keep_freed_heap

rows = (17 << 20) // 8

def cycle():
    arrays = [np.ones(rows) for _ in range(3)]
    return sum(float(a[-1]) for a in arrays)

if keep_freed_heap():
    helper = threading.Thread(target=cycle)
    helper.start()
    helper.join()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        assert cycle() == 3.0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, 5 * 3 * rows * 8 // 4096)
"""


def test_keep_freed_heap_reuses_what_a_helper_thread_freed():
    """The main thread reuses training-sized arrays a helper thread freed, without page faults.

    Run in a fresh process, whose only arena is the one malloc gives every thread.
    """
    import rarecp

    env = dict(os.environ, PYTHONPATH=str(Path(rarecp.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _HELPER_FREES_SCRIPT], env=env, timeout=120,
                         capture_output=True, text=True, check=True).stdout.split()
    if not out:
        pytest.skip("allocator settings apply to glibc only")
    faults, touched_pages = map(int, out)
    assert faults < touched_pages // 100


_FIT_SCRIPT = """
import hashlib, json, os, sys, tempfile
import numpy as np
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from rarecp.checkpoint import components_from_trainer, save_checkpoint
from rarecp.data import CalibrationStore, compute_descriptor
from rarecp.training import ModelConfig, TrainConfig, Trainer, training_workers, write_training_log

def store(rows, dataset_id):
    rng = np.random.default_rng([31, dataset_id])
    contexts = rng.standard_normal((rows, 8))
    residuals = rng.standard_normal(rows) * (1.0 + 3.0 * (contexts[:, 0] > 0))
    store = CalibrationStore.from_arrays(contexts, residuals)
    store.condition(compute_descriptor(store.contexts(), dataset_id), True)
    return store

model = ModelConfig(n_experts=3, latent_dim=6, top_k=12, hidden_dim=16, window=8,
                    include_forecast=False)
digest = lambda data: hashlib.sha256(data).hexdigest()
fits = {}
for rows in ((300,), (600, 420)):
    trainer = Trainer([store(n, d) for d, n in enumerate(rows)], model,
                      TrainConfig(epochs=2, teacher_epochs=1, seed=4, audit=True))
    trainer.run()
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(components_from_trainer(trainer), os.path.join(tmp, "m.ckpt"))
        write_training_log(trainer.log, os.path.join(tmp, "log.csv"))
        checkpoint, log = (open(os.path.join(tmp, name), "rb").read()
                           for name in ("m.ckpt", "log.csv"))
    audit = hashlib.sha256()
    for dataset_id, query, support in trainer.audit:
        audit.update(repr((dataset_id, query, support.dtype.str)).encode() + support.tobytes())
    fits[sum(rows)] = {"workers": training_workers(3 * len(rows), min(rows)),
                       "checkpoint": digest(checkpoint), "log": digest(log),
                       "audit": audit.hexdigest(), "audited": len(trainer.audit)}
print(json.dumps(fits))
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs 2 allowed CPUs",
)
def test_fit_on_every_cpu_equals_a_fit_on_one():
    """At one BLAS thread, a fit's tasks run two or more at a time on every
    allowed CPU and one at a time on one CPU, and give the same checkpoint
    bytes, log and audit trail: for one dataset, and for two, where expert m
    waits for two teachers and a gate round holds a batch per dataset."""
    import rarecp

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(rarecp.__file__).resolve().parent.parent))
    every_cpu, one_cpu = (
        json.loads(subprocess.run([sys.executable, "-c", _FIT_SCRIPT, cpus], env=env, timeout=300,
                                  capture_output=True, text=True, check=True).stdout)
        for cpus in ("every", "one")
    )
    for rows in every_cpu:
        assert every_cpu[rows].pop("workers") >= 2 and one_cpu[rows].pop("workers") == 1
    # 3 teachers per dataset and 3 experts audit every row once an epoch, the gate once
    assert every_cpu["300"]["audited"] == 3 * 300 * (1 + 2) + 300
    assert every_cpu["1020"]["audited"] == 3 * 1020 * (1 + 2) + 1020
    assert every_cpu == one_cpu


# ---------------------------------------------------------------------------
# what a fit holds
# ---------------------------------------------------------------------------


def step_peak_mb(params, loss_fn, steps: int = 2) -> float:
    """The most memory any of ``steps`` optimizer steps held above its start, in MB.

    Measured by tracemalloc, which sees every numpy array (BLAS's own
    buffers are not numpy arrays, so the BLAS thread count does not enter).
    """
    optimizer = Adam(params, lr=1e-3)
    peaks = []
    for _ in range(steps):
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            optimizer_step(optimizer, loss_fn)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    return max(peaks) / 1e6


class TestWhatAFitHolds:
    """At B = 256 and the default architecture (65 context features, 32-dim
    keys, top-k 32, two hidden layers of 96), a step holds no more than it
    must, and a trained model holds plain arrays, which serving never wraps."""

    B, P = 256, 65

    @pytest.fixture(scope="class")
    def store(self):
        rng = np.random.default_rng(41)
        contexts = rng.standard_normal((self.B, self.P))
        return training_store(contexts, rng.standard_normal(self.B) * (1.0 + 3.0 * (contexts[:, 0] > 0)))

    def loss(self, encoder, params, store, top_k, teacher, lambda_anchor):
        return lambda: expert_batch_loss(
            encoder, params, [store], [np.arange(self.B)], teacher, top_k, 1 / 12,
            np.asarray(default_alpha_grid()), 0.0125, 5e-4, lambda_anchor,
        )

    def test_dense_teacher_step_peaks_at_10_mb(self, store):
        """The smooth loss over (256, 22, 256) edges runs in L2-sized blocks."""
        teacher = FixedAffineMap(self.P, 32, seed=1)
        params = leaves(teacher)
        assert step_peak_mb(params, self.loss(teacher, params, store, self.B, None, 0.0)) <= 10.0

    def test_hypernetwork_expert_step_peaks_at_15_mb(self, store):
        """The anchor's and the leave-one-out retrieval's (2112, 256) gradient
        blocks are one block, and used VJPs let go of what they kept."""
        encoder = HypernetworkParams(self.P, 32, hidden_dim=96, hidden_layers=2, seed=0)
        teacher = FixedAffineMap(self.P, 32, seed=1)
        params = leaves(encoder)
        assert step_peak_mb(params,
                            self.loss(encoder, params, store, 32, [(teacher.A, teacher.b)],
                                      5.0)) <= 15.0

    def test_a_model_holds_plain_arrays_and_serving_builds_no_tensor(self, tmp_path,
                                                                      monkeypatch):
        """Every weight of a fitted and of a loaded model is a numpy array, the
        loaded ones read-only; a load, a seed and 50 served steps construct no
        ``Tensor``."""
        rng = np.random.default_rng(42)
        X = rng.standard_normal((110, 7))
        y = rng.standard_normal(110) * (1.0 + 3.0 * (X[:, 0] > 0))
        est = RareCP(window=6, n_experts=2, latent_dim=4, top_k=6, hidden_dim=8, hidden_layers=1,
                     gate_hidden_dim=2, epochs=2, teacher_epochs=1, seed=3).fit(X[:60], y[:60])
        path = tmp_path / "model.bin"
        est.save(path)
        built = []
        init = ad.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        loaded = RareCP.from_checkpoint(path)
        loaded.seed_store(X[:60], y[:60])
        for i in range(60, 110):
            loaded.predict_interval(X[i], 0.0)
            loaded.observe(X[i], y[i])
        monkeypatch.undo()
        assert built == []

        def weights(components):
            stack = components.experts
            arrays = [a for layer in stack.layers for a in layer]
            arrays += [a for e in stack for layer in e.encoder.layers for a in layer]
            return arrays + [a for layer in components.gate.layers for a in layer]

        for components, writeable in ((est.components_, True), (loaded.components_, False)):
            arrays = weights(components)
            assert len(arrays) == 4 + 2 * 4 + 4
            assert all(type(a) is np.ndarray and a.flags.writeable == writeable for a in arrays)


def test_same_seed_training_logs_are_identical_and_carry_the_blas_threads(tmp_path):
    rng = np.random.default_rng(43)
    X = rng.standard_normal((50, 7))
    y = rng.standard_normal(50)
    logs = []
    for name in ("a.csv", "b.csv"):
        est = RareCP(window=6, n_experts=2, latent_dim=4, top_k=6, hidden_dim=8, hidden_layers=1,
                     gate_hidden_dim=2, epochs=2, teacher_epochs=1, seed=9).fit(X, y)
        write_training_log(est.train_log_, tmp_path / name)
        logs.append((tmp_path / name).read_bytes())
    assert logs[0] == logs[1]
    lines = logs[0].decode().splitlines()
    threads = blas_threads()
    assert lines[0].split(",")[-1] == "blas_threads"
    assert len(lines) > 1
    assert {line.split(",")[-1] for line in lines[1:]} == {"" if threads is None else str(threads)}
