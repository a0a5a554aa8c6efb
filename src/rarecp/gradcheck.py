"""Finite-difference verification suites for the differentiation engine.

Central differences with step ``h`` are compared against tape gradients;
relative error uses a ``max(|a|, |b|, 1e-8)`` denominator. Instances are
seeded away from top-k ties and activation kinks, where the losses are not
differentiable (selection flips under perturbation are excluded by
construction, not smoothed over).
"""

from __future__ import annotations

import numpy as np

from rarecp import autodiff as ad
from rarecp.autodiff import finite_diff_check
from rarecp.data import CalibrationStore, compute_descriptor
from rarecp.experts import ExpertConfig, FixedAffineMap, HypernetworkParams, RetrievalExpert
from rarecp.gate import GateParams
from rarecp.training import (
    _expert_support,
    _prepare_gate_batch,
    default_alpha_grid,
    expert_batch_loss,
    gate_batch_loss,
)

PRIMITIVE_TOL = 1e-4
PIPELINE_TOL = 1e-3


def primitive_checks(seed: int = 0, h: float = 1e-5) -> list[tuple[str, float]]:
    """Per-primitive vector-Jacobian product checks on random inputs."""
    rng = np.random.default_rng(seed)

    def vec(n, low=None):
        x = rng.standard_normal(n)
        if low is not None:
            x = np.abs(x) + low
        return x

    results = []

    def check(name, make_params, f):
        params = make_params()
        err = finite_diff_check(lambda: f(*params), params, h=h)
        results.append((name, err))

    check("add", lambda: [ad.parameter(vec(5)), ad.parameter(vec(5))],
          lambda a, b: ad.reduce_sum(ad.square(ad.add(a, b))))
    check("mul", lambda: [ad.parameter(vec(5)), ad.parameter(vec(5))],
          lambda a, b: ad.reduce_sum(ad.mul(a, b)))
    check("matmul_mv", lambda: [ad.parameter(rng.standard_normal((3, 4))), ad.parameter(vec(4))],
          lambda A, x: ad.reduce_sum(ad.square(ad.matmul(A, x))))
    check("matmul_mm", lambda: [ad.parameter(rng.standard_normal((3, 4))),
                                ad.parameter(rng.standard_normal((4, 2)))],
          lambda A, B: ad.reduce_sum(ad.square(ad.matmul(A, B))))
    check("affine_mat", lambda: [ad.parameter(rng.standard_normal((3, 4))),
                                 ad.parameter(rng.standard_normal((4, 5))),
                                 ad.parameter(vec(3))],
          lambda W, X, b: ad.reduce_sum(ad.square(ad.affine(W, X, b))))
    check("sum", lambda: [ad.parameter(vec(6))], lambda x: ad.reduce_sum(ad.square(x)))
    check("mean", lambda: [ad.parameter(vec(6))], lambda x: ad.reduce_mean(ad.square(x)))
    probe5 = ad.constant(vec(5))
    check("l2_normalize_vec", lambda: [ad.parameter(vec(5) + 0.5)],
          lambda x: ad.reduce_sum(ad.mul(ad.l2_normalize(x), probe5)))
    probe43 = ad.constant(rng.standard_normal((4, 3)))
    check("l2_normalize_mat", lambda: [ad.parameter(rng.standard_normal((4, 3)) + 0.2)],
          lambda X: ad.reduce_sum(ad.mul(ad.l2_normalize(X), probe43)))
    check("sigmoid", lambda: [ad.parameter(vec(6))],
          lambda x: ad.reduce_sum(ad.sigmoid(x)))
    check("softplus", lambda: [ad.parameter(vec(6))],
          lambda x: ad.reduce_sum(ad.softplus_with_temperature(x, 0.3)))
    check("tanh", lambda: [ad.parameter(vec(6))], lambda x: ad.reduce_sum(ad.tanh(x)))
    check("relu", lambda: [ad.parameter(vec(6, low=0.2) * rng.choice([-1.0, 1.0], 6))],
          lambda x: ad.reduce_sum(ad.relu(x)))
    check("log", lambda: [ad.parameter(vec(6, low=0.5))], lambda x: ad.reduce_sum(ad.log(x)))
    check("exp", lambda: [ad.parameter(vec(6))], lambda x: ad.reduce_sum(ad.exp(x)))
    check("square", lambda: [ad.parameter(vec(6))], lambda x: ad.reduce_sum(ad.square(x)))
    check("concat", lambda: [ad.parameter(vec(3)), ad.parameter(vec(4))],
          lambda a, b: ad.reduce_sum(ad.square(ad.concat([a, b]))))
    check("reshape", lambda: [ad.parameter(rng.standard_normal((2, 3)))],
          lambda x: ad.reduce_sum(ad.square(ad.reshape(x, (6,)))))
    check("scale", lambda: [ad.parameter(vec(5))],
          lambda x: ad.reduce_sum(ad.scale(x, -2.5)))
    shift5 = vec(5)
    check("add_const", lambda: [ad.parameter(vec(5))],
          lambda x: ad.reduce_sum(ad.square(ad.add_const(x, shift5))))
    check("reciprocal", lambda: [ad.parameter(vec(5, low=0.5))],
          lambda x: ad.reduce_sum(ad.reciprocal(x)))
    check("transpose", lambda: [ad.parameter(rng.standard_normal((3, 4)))],
          lambda X: ad.reduce_sum(ad.square(ad.matmul(ad.transpose(X), X))))

    # batched episode-parallel primitives
    ctx_t = rng.standard_normal((3, 6))  # p=3, B=6 episodes
    probe_loo = rng.standard_normal((6, 3))
    check("loo_retrieval_scores", lambda: [ad.parameter(rng.standard_normal((2 * (3 + 1), 6)))],
          lambda maps: ad.reduce_sum(ad.mul(
              ad.loo_retrieval_scores(maps, ctx_t, 3)[1], ad.constant(probe_loo))))
    res_sw = np.sort(rng.standard_normal((3, 5)), axis=1)
    targets_sw = rng.standard_normal(3)
    w_sw = vec(15, low=0.1).reshape(3, 5)
    check("smooth_winkler_grid", lambda: [ad.parameter(w_sw / w_sw.sum(axis=1, keepdims=True))],
          lambda W: ad.reduce_sum(ad.smooth_winkler_grid(
              W, res_sw, targets_sw, [0.1, 0.2, 0.3], 0.1, 0.05)))
    rows_idx = rng.integers(0, 5, size=(3, 4))
    check("gather_rows", lambda: [ad.parameter(rng.standard_normal((3, 5)))],
          lambda X: ad.reduce_sum(ad.square(ad.gather_rows(X, rows_idx))))
    probe_sr = rng.standard_normal((3, 5))
    check("softmax_rows", lambda: [ad.parameter(rng.standard_normal((3, 5)))],
          lambda X: ad.reduce_sum(ad.mul(ad.softmax_rows(X, 0.8), ad.constant(probe_sr))))
    mix_v = rng.standard_normal((3, 5, 2))
    check("batched_mix", lambda: [ad.parameter(rng.standard_normal((3, 2)))],
          lambda P: ad.reduce_sum(ad.square(ad.batched_mix(ad.constant(mix_v), P))))
    # positive inputs and one sign per unit keep each pre-activation 0.2 or more from 0
    x_mlp, mlp_layers = 0.2 + np.abs(rng.standard_normal((4, 5))), []
    for n_in, n_out in ((4, 6), (6, 5), (5, 3)):
        sign = rng.choice([-1.0, 1.0], n_out)
        w, b = rng.random((n_out, n_in)), 0.2 + rng.random(n_out)
        mlp_layers.append((sign[:, None] * w, sign * b))
    for activation in ("tanh", "relu"):
        check(f"mlp_{activation}", lambda: [ad.parameter(a) for pair in mlp_layers for a in pair],
              lambda *p: ad.reduce_sum(ad.square(ad.mlp(zip(p[::2], p[1::2]), x_mlp, activation))))
    target_sq = rng.standard_normal((4, 3))
    check("sq_distance", lambda: [ad.parameter(rng.standard_normal((4, 3)))],
          lambda X: ad.sq_distance(X, target_sq, 0.7))
    return results


def smooth_pipeline_check(
    seed: int = 0, n_support: int = 16, h: float = 1e-5
) -> float:
    """Gradient of the smooth interval loss w.r.t. raw support scores."""
    rng = np.random.default_rng(seed)
    residuals = np.sort(rng.standard_normal(n_support))
    target = float(rng.standard_normal())
    scores = ad.parameter(rng.standard_normal((1, n_support)))
    alphas = np.asarray(default_alpha_grid())

    def f():
        weights = ad.softmax_rows(scores, 0.25)
        loss = ad.smooth_winkler_grid(weights, residuals[None, :], [target], alphas, 0.05, 5e-3)
        return ad.reduce_sum(loss)

    return finite_diff_check(f, [scores], h=h)


def _gradcheck_instance(seed: int, n_episodes: int, n_experts: int, context_dim: int):
    rng = np.random.default_rng(seed)
    contexts = rng.standard_normal((n_episodes, context_dim))
    residuals = rng.standard_normal(n_episodes) * (1.0 + np.abs(contexts[:, 0]))
    store = CalibrationStore.from_arrays(contexts, residuals)
    store.condition(compute_descriptor(store.contexts()))
    encoders = []
    teachers = []
    for m in range(n_experts):
        encoder = HypernetworkParams(
            context_dim=context_dim,
            latent_dim=4,
            hidden_dim=8,
            hidden_layers=1,
            seed=seed + 10 * m,
            final_weight_scale=0.05,
        )
        encoders.append(encoder)
        teachers.append(
            (
                rng.normal(0.0, 0.3, size=(4, context_dim)),
                rng.normal(0.0, 0.3, size=4),
            )
        )
    return store, encoders, teachers


def expert_loss_check(
    seed: int = 0,
    n_episodes: int = 16,
    n_experts: int = 2,
    context_dim: int = 8,
    top_k: int = 4,
    h: float = 1e-5,
) -> float:
    """Full expert objective (interval term plus anchor) vs central differences."""
    store, encoders, teachers = _gradcheck_instance(
        seed, n_episodes, n_experts, context_dim
    )
    batch = np.arange(n_episodes)
    alphas = np.asarray(default_alpha_grid())

    def f():
        total = None
        for encoder, teacher in zip(encoders, teachers):
            loss = expert_batch_loss(
                encoder,
                [store],
                [batch],
                [teacher],
                top_k=top_k,
                temperature=1.0 / 6.0,
                alpha_grid=alphas,
                tau_q=0.05,
                tau_p=5e-3,
                lambda_anchor=5.0,
            )
            total = loss if total is None else ad.add(total, loss)
        return total

    params = [p for encoder in encoders for p in encoder.parameters()]
    return finite_diff_check(f, params, h=h)


def teacher_loss_check(
    seed: int = 0,
    n_episodes: int = 12,
    context_dim: int = 6,
    h: float = 1e-5,
) -> float:
    """Fixed-affine objective with dense top-k vs central differences.

    Checks the teacher prefit objective (no anchor), then the same map
    anchored to a teacher as a fixed-affine expert is; returns the larger
    error.
    """
    store, _, teachers = _gradcheck_instance(seed, n_episodes, 1, context_dim)
    encoder = FixedAffineMap(context_dim, 4, seed=seed)
    batch = np.arange(n_episodes)
    alphas = np.asarray(default_alpha_grid())

    def objective(anchor):
        return lambda: expert_batch_loss(
            encoder,
            [store],
            [batch],
            anchor,
            top_k=n_episodes,
            temperature=1.0 / 6.0,
            alpha_grid=alphas,
            tau_q=0.05,
            tau_p=5e-3,
            lambda_anchor=5.0,
        )

    return max(
        finite_diff_check(objective(anchor), encoder.parameters(), h=h)
        for anchor in (None, teachers)
    )


def gate_loss_check(
    seed: int = 0,
    n_episodes: int = 12,
    n_experts: int = 2,
    context_dim: int = 6,
    h: float = 1e-5,
) -> float:
    """Gate objective (mixed-support loss minus entropy) vs central differences."""
    store, encoders, _ = _gradcheck_instance(seed, n_episodes, n_experts, context_dim)
    rng = np.random.default_rng(seed + 77)
    config = ExpertConfig(top_k=4, beta=6.0)
    experts = [RetrievalExpert(encoder=e, config=config) for e in encoders]
    gate = GateParams(context_dim, n_experts, hidden_dim=4, seed=seed)
    w_last, b_last = gate.layers[-1]
    w_last.data = rng.normal(0.0, 0.5, size=w_last.data.shape)
    b_last.data = rng.normal(0.0, 0.5, size=b_last.data.shape)

    batch = np.arange(n_episodes)
    supports = [_expert_support(expert, store, batch) for expert in experts]
    prepared = [_prepare_gate_batch(store, batch, supports, None)]
    alphas = np.asarray(default_alpha_grid())

    def f():
        return gate_batch_loss(gate, prepared, alphas, 0.05, 5e-3, 0.02)

    return finite_diff_check(f, gate.parameters(), h=h)


def run_all(seed: int = 0) -> list[tuple[str, float, float]]:
    """Every suite as (name, max relative error, tolerance) rows."""
    rows = [
        (f"primitive:{name}", err, PRIMITIVE_TOL)
        for name, err in primitive_checks(seed)
    ]
    rows.append(("smooth_pipeline", smooth_pipeline_check(seed), PIPELINE_TOL))
    rows.append(("expert_loss", expert_loss_check(seed), PIPELINE_TOL))
    rows.append(("teacher_loss", teacher_loss_check(seed), PIPELINE_TOL))
    rows.append(("gate_loss", gate_loss_check(seed), PIPELINE_TOL))
    return rows
