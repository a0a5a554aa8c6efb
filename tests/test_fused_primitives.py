"""The fused training primitives against per-level and full-tape oracles.

``smooth_winkler_grid`` must reproduce the per-level tape loss (one chain
of ~10 primitives per quantile level) and ``loo_retrieval_scores`` the
four-primitive retrieval chain (keys, 3-D normalisation, query scores,
row gather), both kept here as test-local oracles. ``mlp`` must give the
bits of the per-layer ``affine``/``tanh``/``relu`` chain.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecp import autodiff as ad
from rarecp.errors import NumericError
from rarecp.training import default_alpha_grid

ALPHAS = np.asarray(default_alpha_grid())
REL = 1e-10


def fourth_order_grad(f, x, h=1e-3):
    """Central differences of a scalar ``f`` at ``x`` with O(h^4) error."""
    grad = np.empty_like(x)
    for i in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (8 * (f(x + step) - f(x - step)) - (f(x + 2 * step) - f(x - 2 * step))) / (12 * h)
    return grad


@contextmanager
def patched(**values):
    """Module constants of ``autodiff`` set to ``values`` inside the block."""
    old = {name: getattr(ad, name) for name in values}
    for name, value in values.items():
        setattr(ad, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(ad, name, value)


def rel_err(new, old):
    """Largest difference relative to the larger of the oracle's size and 1.

    The floor of 1 matters only where the exact gradient is zero (a support
    with a single weighted atom), which both sides compute as 1e-15 noise.
    """
    new, old = np.asarray(new), np.asarray(old)
    return float(np.max(np.abs(new - old)) / max(np.max(np.abs(old)), 1.0))


# ---------------------------------------------------------------------------
# oracle: the per-level tape loss
# ---------------------------------------------------------------------------


def per_level_winkler(weights_sorted, residuals_sorted, targets, alpha_grid, tau_q, tau_p):
    s = residuals_sorted.shape[1]
    c_incl = ad.matmul(weights_sorted, ad.constant(np.triu(np.ones((s, s)))))
    c_prev = ad.matmul(weights_sorted, ad.constant(np.triu(np.ones((s, s)), 1)))
    ones_s = ad.constant(np.ones(s))
    res_const = ad.constant(residuals_sorted)
    quantiles = {}
    alphas = np.asarray(alpha_grid, dtype=np.float64)
    levels = sorted({float(q) for a in alphas for q in (a / 2.0, 1.0 - a / 2.0)})
    for q in levels:
        s_prev = ad.sigmoid(ad.scale(ad.add_const(ad.scale(c_prev, -1.0), q), 1.0 / tau_q))
        s_incl = ad.sigmoid(ad.scale(ad.add_const(ad.scale(c_incl, -1.0), q), 1.0 / tau_q))
        bins = ad.relu(ad.add(s_prev, ad.scale(s_incl, -1.0)))
        num = ad.matmul(ad.mul(bins, res_const), ones_s)
        den = ad.matmul(bins, ones_s)
        quantiles[q] = ad.mul(num, ad.reciprocal(den))
    total = None
    for a in alphas:
        lo = quantiles[float(a / 2.0)]
        hi = quantiles[float(1.0 - a / 2.0)]
        width = ad.add(hi, ad.scale(lo, -1.0))
        pen_lo = ad.softplus_with_temperature(ad.add_const(lo, -targets), tau_p)
        pen_hi = ad.softplus_with_temperature(ad.add_const(ad.scale(hi, -1.0), targets), tau_p)
        per_alpha = ad.add(width, ad.scale(ad.add(pen_lo, pen_hi), 2.0 / a))
        total = per_alpha if total is None else ad.add(total, per_alpha)
    return ad.scale(total, 1.0 / alphas.size)


def sorted_batch(rng, B, s, pad=0, ties=False):
    """(B, s) softmax weight rows sorted by their residuals; ``pad`` trailing
    slots per row get zero weight and residual 0 before sorting, as the
    gate's padded unions do."""
    residuals = rng.standard_normal((B, s))
    if ties:
        residuals = np.round(residuals * 2.0) / 2.0
    logits = rng.standard_normal((B, s))
    weights = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    if pad:
        weights[:, s - pad :] = 0.0
        weights /= weights.sum(axis=1, keepdims=True)
        residuals[:, s - pad :] = 0.0
    perm = np.argsort(residuals, axis=1, kind="stable")
    return (
        np.take_along_axis(weights, perm, axis=1),
        np.take_along_axis(residuals, perm, axis=1),
        rng.standard_normal(B) * 1.5,
    )


def value_and_grad(loss_fn, weights, residuals, targets, tau_q, tau_p, probe):
    w = ad.parameter(weights)
    with ad.Tape() as tape:
        out = loss_fn(w, residuals, targets, ALPHAS, tau_q, tau_p)
        total = ad.reduce_sum(ad.mul(out, ad.constant(probe)))
    tape.backward(total)
    return out.data, w.grad


CASES = [
    # (B, s, pad, ties)
    (5, 1, 0, False),
    (6, 2, 0, False),
    (6, 2, 1, False),
    (8, 32, 0, False),
    (8, 32, 7, False),
    (8, 32, 0, True),
    (8, 32, 5, True),
    (3, 255, 0, False),
    (3, 255, 40, True),
]


class TestSmoothWinklerGrid:
    @pytest.mark.parametrize("tau_q", [1e-4, 1e-3, 0.01, 0.05])
    @pytest.mark.parametrize("B,s,pad,ties", CASES)
    def test_matches_per_level_oracle(self, B, s, pad, ties, tau_q):
        rng = np.random.default_rng([B, s, pad, int(ties), int(1e4 * tau_q)])
        weights, residuals, targets = sorted_batch(rng, B, s, pad, ties)
        probe = rng.standard_normal(B)
        for tau_p in (5e-4, 0.05):
            new_v, new_g = value_and_grad(
                ad.smooth_winkler_grid, weights, residuals, targets, tau_q, tau_p, probe)
            old_v, old_g = value_and_grad(
                per_level_winkler, weights, residuals, targets, tau_q, tau_p, probe)
            assert new_v.shape == (B,)
            np.testing.assert_allclose(new_v, old_v, rtol=REL, atol=0.0)
            assert rel_err(new_g, old_g) < REL

    def test_saturated_edges_are_exactly_zero_or_one(self):
        # |z| > 40 sets exp(-|z|) to 0: no subnormal or near-zero tails remain
        weights, residuals, _ = sorted_batch(np.random.default_rng(12), 4, 255)
        _, S, _, _ = ad.smooth_quantiles(weights, residuals, [0.1, 0.9], 1e-4)
        assert S.min() == 0.0 and S.max() == 1.0
        assert not np.any((S > 0.0) & (S < np.exp(-40.0)))

    def test_vanished_bin_mass_raises(self):
        with pytest.raises(NumericError):
            ad.smooth_winkler_grid(
                ad.constant(np.zeros((2, 4))), np.zeros((2, 4)), np.zeros(2), ALPHAS,
                0.05, 1e-3,
            )

    def test_rows_are_independent_episodes(self):
        rng = np.random.default_rng(9)
        weights, residuals, targets = sorted_batch(rng, 4, 10)
        batched = ad.smooth_winkler_grid(
            ad.constant(weights), residuals, targets, ALPHAS, 0.02, 1e-3).data
        for j in range(4):
            single = ad.smooth_winkler_grid(
                ad.constant(weights[j : j + 1]), residuals[j : j + 1], targets[j : j + 1],
                ALPHAS, 0.02, 1e-3).data
            assert single[0] == pytest.approx(batched[j], rel=1e-14)

    def test_one_tape_record(self):
        rng = np.random.default_rng(10)
        weights, residuals, targets = sorted_batch(rng, 4, 10)
        w = ad.parameter(weights)
        with ad.Tape() as tape:
            ad.smooth_winkler_grid(w, residuals, targets, ALPHAS, 0.02, 1e-3)
        assert len(tape.records) == 1

    def test_finite_differences(self):
        rng = np.random.default_rng(11)
        weights, residuals, targets = sorted_batch(rng, 3, 6)
        probe = rng.standard_normal(3)

        def f(x):
            out = ad.smooth_winkler_grid(x, residuals, targets, ALPHAS, 0.05, 0.02).data
            return float(out @ probe)

        _, grad = value_and_grad(
            ad.smooth_winkler_grid, weights, residuals, targets, 0.05, 0.02, probe)
        assert rel_err(grad, fourth_order_grad(f, weights, h=1e-4)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        B=st.integers(1, 40), s=st.integers(1, 300), block_bytes=st.integers(1, 1 << 20),
        kept=st.booleans(), tau_q=st.sampled_from([1e-4, 0.01, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_edge_block_size_equals_one_block(self, B, s, block_bytes, kept, tau_q, seed):
        """Blocks of edge sigmoids of any size give one block's bytes, for a
        dense support as wide as a teacher's, with the edges kept or
        recomputed by the VJP."""
        rng = np.random.default_rng(seed)
        weights, residuals, targets = sorted_batch(rng, B, s, ties=True)
        probe = rng.standard_normal(B)
        results = []
        for size in (block_bytes, 1 << 40):
            with patched(_EDGE_BLOCK_BYTES=size, _KEPT_EDGES_BYTES=(1 << 40) if kept else 0):
                value, grad = value_and_grad(
                    ad.smooth_winkler_grid, weights, residuals, targets, tau_q, 5e-4, probe)
            results.append((value.tobytes(), grad.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("B,s,pad", [(130, 40, 3), (70, 255, 0)])
    def test_blocks_and_recomputed_edges_change_no_bit(self, monkeypatch, B, s, pad):
        """Episodes in blocks of 64 with edges kept, in blocks with edges
        recomputed by the VJP, and in one block give the same bytes."""
        rng = np.random.default_rng([B, s])
        weights, residuals, targets = sorted_batch(rng, B, s, pad=pad, ties=True)
        probe = rng.standard_normal(B)
        results = []
        for chunk, kept_bytes in ((64, 1 << 40), (64, 0), (10**6, 1 << 40)):
            monkeypatch.setattr(ad, "_EDGE_BLOCK_BYTES", chunk * 2 * ALPHAS.size * (s + 1) * 8)
            monkeypatch.setattr(ad, "_KEPT_EDGES_BYTES", kept_bytes)
            value, grad = value_and_grad(
                ad.smooth_winkler_grid, weights, residuals, targets, 0.01, 5e-4, probe)
            results.append((value.tobytes(), grad.tobytes()))
        assert results[0] == results[1] == results[2]


# ---------------------------------------------------------------------------
# oracle: the full-tape retrieval chain
# ---------------------------------------------------------------------------


def emit_keys(out, contexts_t, latent_dim):
    t_out = ad.as_tensor(out)
    C = np.asarray(contexts_t, dtype=np.float64)
    p, n = C.shape
    d = int(latent_dim)
    D, B = t_out.data.shape
    A_all = t_out.data[: d * p].T.reshape(B, d, p)
    b_all = t_out.data[d * p :].T
    keys = (A_all.reshape(B * d, p) @ C).reshape(B, d, n) + b_all[:, :, None]

    def vjp(g):
        dA = (g.reshape(B * d, n) @ C.T).reshape(B, d, p)
        grad = np.empty((D, B))
        grad[: d * p] = dA.reshape(B, d * p).T
        grad[d * p :] = g.sum(axis=2).T
        return (grad,)

    return ad._finish(keys, (t_out,), vjp)


def l2_normalize_3d(x):
    tx = ad.as_tensor(x)
    X = tx.data
    inv = 1.0 / np.sqrt(np.einsum("jdi,jdi->ji", X, X) + ad.EPS_NORM)

    def vjp(g):
        dots = np.einsum("jdi,jdi->ji", X, g)
        return (g * inv[:, None, :] - X * (dots * inv**3)[:, None, :],)

    return ad._finish(X * inv[:, None, :], (tx,), vjp)


def query_key_scores(normalized_keys, query_columns):
    t_nk = ad.as_tensor(normalized_keys)
    NK = t_nk.data
    B = NK.shape[0]
    cols = np.asarray(query_columns, dtype=np.int64)
    rows = np.arange(B)
    Q = NK[rows, :, cols]
    scores = np.einsum("jd,jdi->ji", Q, NK)

    def vjp(g):
        dNK = Q[:, :, None] * g[:, None, :]
        dNK[rows, :, cols] += np.einsum("ji,jdi->jd", g, NK)
        return (dNK,)

    return ad._finish(scores, (t_nk,), vjp)


def full_tape_retrieval(out, contexts_t, top_k):
    p, B = contexts_t.shape
    keys = emit_keys(out, contexts_t, out.shape[0] // (p + 1))
    scores = query_key_scores(l2_normalize_3d(keys), np.arange(B))
    masked = scores.data.copy()
    np.fill_diagonal(masked, -np.inf)
    sel = np.argsort(-masked, axis=1, kind="stable")[:, : min(int(top_k), B - 1)]
    return sel, ad.gather_rows(scores, sel)


def retrieval_instance(rng, B, p, L, duplicates=False):
    maps = rng.standard_normal((L * (p + 1), B))
    contexts_t = rng.standard_normal((p, B))
    if duplicates:
        # repeated candidate columns tie their scores in every other episode
        contexts_t[:, 1::3] = contexts_t[:, [0]]
    return maps, contexts_t


def retrieval_grad(fn, maps, contexts_t, top_k):
    m = ad.parameter(maps)
    with ad.Tape() as tape:
        sel, scores = fn(m, contexts_t, top_k)
        probe = np.random.default_rng(0).standard_normal(scores.shape)
        total = ad.reduce_sum(ad.mul(scores, ad.constant(probe)))
    tape.backward(total)
    return sel, scores.data, m.grad


class TestLooRetrievalScores:
    @settings(max_examples=40, deadline=None)
    @given(
        B=st.integers(2, 70), p=st.integers(1, 9), L=st.integers(1, 6), top_k=st.integers(1, 80),
        duplicates=st.booleans(), chunk=st.sampled_from([2, 5, 32, 10**6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_keys_and_accumulating_vjp_are_bit_exact(self, B, p, L, top_k, duplicates, chunk,
                                                     seed):
        """At any block size (blocks key at least two episodes) the selection
        and scores are the unfolded GEMM + bias chain's, ties included, and
        the VJP's partial added into a held gradient sum is bitwise that sum
        plus the partial alone, which is the one-block partial."""
        rng = np.random.default_rng(seed)
        maps, contexts_t = retrieval_instance(rng, B, p, L, duplicates)
        g = rng.standard_normal((B, min(top_k, B - 1)))
        held = rng.standard_normal(maps.shape)
        sel_o, scores_o = full_tape_retrieval(ad.constant(maps), contexts_t, top_k)
        partials = []
        for size in (chunk, 10**6):
            with patched(_CHUNK=size), ad.Tape() as tape:
                sel, scores = ad.loo_retrieval_scores(ad.parameter(maps), contexts_t, top_k)
            assert np.array_equal(sel, sel_o)
            assert scores.data.tobytes() == scores_o.data.tobytes()
            (_, _, vjp), = tape.records
            (add,) = vjp(g)
            with patched(_CHUNK=size):
                alone, summed = add(None), add(held.copy())
            assert summed.tobytes() == (held + alone).tobytes()
            partials.append(alone.tobytes())
        assert partials[0] == partials[1]

    @pytest.mark.parametrize(
        "B,p,L,top_k,duplicates",
        [
            (12, 5, 4, 4, False),
            (12, 5, 4, 4, True),
            (9, 3, 2, 8, False),   # k = B - 1: every candidate
            (9, 3, 2, 20, True),   # k > B - 1
            (40, 8, 6, 7, True),
            (2, 3, 2, 1, False),
        ],
    )
    def test_matches_full_tape_oracle(self, B, p, L, top_k, duplicates):
        rng = np.random.default_rng([B, p, L, top_k, int(duplicates)])
        maps, contexts_t = retrieval_instance(rng, B, p, L, duplicates)
        sel, scores, grad = retrieval_grad(ad.loo_retrieval_scores, maps, contexts_t, top_k)
        sel_o, scores_o, grad_o = retrieval_grad(full_tape_retrieval, maps, contexts_t, top_k)
        assert sel.shape == (B, min(top_k, B - 1))
        assert np.array_equal(sel, sel_o)
        assert np.array_equal(scores, scores_o)
        assert rel_err(grad, grad_o) < REL
        assert not np.any(sel == np.arange(B)[:, None])

    def test_a_lone_last_episode_is_keyed_with_the_block_before_it(self):
        """With one-dimensional keys, a block of one episode would key it
        with a one-row GEMM, which rounds differently: B = 33 in blocks of 32
        gives one block's bytes."""
        rng = np.random.default_rng(11)
        maps, contexts_t = retrieval_instance(rng, 33, 7, 1)
        results = []
        for size in (32, 10**6):
            with patched(_CHUNK=size):
                sel, scores, grad = retrieval_grad(ad.loo_retrieval_scores, maps, contexts_t, 4)
            results.append((sel.tobytes(), scores.tobytes(), grad.tobytes()))
        assert results[0] == results[1]
        assert ad._chunks(33, 32) == [slice(0, 33)]
        assert ad._chunks(66, 32) == [slice(0, 32), slice(32, 64), slice(64, 66)]

    @pytest.mark.parametrize("B,top_k", [(130, 32), (70, 69)])
    def test_blocks_change_no_bit(self, monkeypatch, B, top_k):
        """Episodes keyed in blocks of 64 and in one block give the same bytes."""
        rng = np.random.default_rng([B, top_k])
        maps, contexts_t = retrieval_instance(rng, B, 6, 4, duplicates=True)
        results = []
        for chunk in (64, 10**6):
            monkeypatch.setattr(ad, "_CHUNK", chunk)
            sel, scores, grad = retrieval_grad(ad.loo_retrieval_scores, maps, contexts_t, top_k)
            results.append((sel.tobytes(), scores.tobytes(), grad.tobytes()))
        assert results[0] == results[1]

    def test_tied_scores_go_to_the_smaller_column(self):
        rng = np.random.default_rng(5)
        maps, contexts_t = retrieval_instance(rng, 10, 4, 3)
        contexts_t[:] = contexts_t[:, [0]]  # every key is the same
        sel, scores = ad.loo_retrieval_scores(ad.constant(maps), contexts_t, 4)
        for j in range(10):
            assert list(sel[j]) == [c for c in range(10) if c != j][:4]
        assert np.all(scores.data == scores.data[:, :1])

    def test_scores_are_per_episode_cosines(self):
        rng = np.random.default_rng(6)
        L, p, B = 3, 4, 7
        maps, contexts_t = retrieval_instance(rng, B, p, L)
        sel, scores = ad.loo_retrieval_scores(ad.constant(maps), contexts_t, 3)
        for j in range(B):
            A = maps[: L * p, j].reshape(L, p)
            b = maps[L * p :, j]
            keys = A @ contexts_t + b[:, None]
            keys /= np.sqrt((keys**2).sum(axis=0) + ad.EPS_NORM)
            np.testing.assert_allclose(scores.data[j], keys[:, j] @ keys[:, sel[j]], rtol=1e-13)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        maps, contexts_t = retrieval_instance(rng, 8, 4, 3)
        sel, _ = ad.loo_retrieval_scores(ad.constant(maps), contexts_t, 3)
        probe = rng.standard_normal(sel.shape)

        def f(x):
            s, scores = ad.loo_retrieval_scores(x, contexts_t, 3)
            assert np.array_equal(s, sel)  # the steps stay clear of selection flips
            return float(np.sum(scores.data * probe))

        m = ad.parameter(maps)
        with ad.Tape() as tape:
            _, scores = ad.loo_retrieval_scores(m, contexts_t, 3)
            total = ad.reduce_sum(ad.mul(scores, ad.constant(probe)))
        tape.backward(total)
        assert rel_err(m.grad, fourth_order_grad(f, maps)) < 1e-10

    def test_one_tape_record(self):
        rng = np.random.default_rng(8)
        maps, contexts_t = retrieval_instance(rng, 6, 3, 2)
        m = ad.parameter(maps)
        _, untaped = ad.loo_retrieval_scores(m, contexts_t, 2)
        assert not untaped.requires_grad
        with ad.Tape() as tape:
            ad.loo_retrieval_scores(m, contexts_t, 2)
        assert len(tape.records) == 1


class TestTopkRows:
    @pytest.mark.parametrize("B,top_k", [(3, 1), (3, 5), (16, 4), (16, 15), (50, 10)])
    def test_equals_stable_argsort_with_ties(self, B, top_k):
        rng = np.random.default_rng([B, top_k])
        for levels in (3, 10, 0):
            if levels:
                scores = rng.integers(0, levels, (B, B)) / 4.0
            else:
                scores = rng.standard_normal((B, B))
            np.fill_diagonal(scores, -np.inf)  # as a leave-one-out caller masks them
            expected = np.argsort(-scores, axis=1, kind="stable")[:, : min(top_k, B)]
            assert np.array_equal(ad.topk_rows(scores, top_k), expected)


    @given(
        n=st.integers(1, 12), B=st.integers(1, 24), top_k=st.integers(0, 30),
        levels=st.integers(0, 6), neg_inf=st.booleans(), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_partial_selection_equals_full_stable_sort(
        self, n, B, top_k, levels, neg_inf, seed
    ):
        """Any (n, B) block: ties, -inf scores, k of 0 and k >= B; the scores stay as given."""
        rng = np.random.default_rng(seed)
        if levels:  # few distinct values: ties everywhere
            scores = rng.integers(0, levels, (n, B)) / 4.0
        else:
            scores = rng.standard_normal((n, B))
        if neg_inf:  # -inf scores tie with each other, as masked own columns do
            scores[rng.random((n, B)) < 0.3] = -np.inf
        given_scores = scores.copy()
        k = min(top_k, B)
        want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        got = ad.topk_rows(scores, top_k)
        assert got.shape == (n, k) and got.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(scores, given_scores)


# ---------------------------------------------------------------------------
# sq_distance


class TestSqDistance:
    @pytest.mark.parametrize("shape", [(5,), (4, 3), (2112, 64)])
    @pytest.mark.parametrize("c", [1.0, 1.0 / 256])
    def test_equals_four_record_chain_bitwise(self, shape, c):
        rng = np.random.default_rng([len(shape), shape[0]])
        x0, target = rng.standard_normal(shape), rng.standard_normal(shape)
        results = []
        for fused in (True, False):
            x = ad.parameter(x0)
            with ad.Tape() as tape:
                y = ad.mul(x, ad.constant(np.full(shape, 0.5)))  # a gradient arrives from upstream
                if fused:
                    out = ad.sq_distance(y, target, c)
                else:
                    out = ad.scale(ad.reduce_sum(ad.square(ad.add_const(y, -target))), c)
                loss = ad.scale(out, 3.0)
            tape.backward(loss)
            results.append((out.data.tobytes(), x.grad.tobytes(), len(tape.records)))
        (out_f, grad_f, records_f), (out_c, grad_c, records_c) = results
        assert out_f == out_c and grad_f == grad_c
        assert (records_f, records_c) == (3, 6)

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        x0, target = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        x = ad.parameter(x0)
        with ad.Tape() as tape:
            loss = ad.sq_distance(x, target, 0.3)
        tape.backward(loss)
        f = lambda v: float(ad.sq_distance(v, target, 0.3).data)  # noqa: E731
        assert rel_err(x.grad, fourth_order_grad(f, x0)) < REL


# ---------------------------------------------------------------------------
# mlp


def mlp_instance(rng, sizes, B, M=None):
    """An (in, B) input block, F-ordered as training's encoder input is, and layers."""
    lead = () if M is None else (M,)
    x = rng.standard_normal((B, sizes[0])).T
    layers = [
        (rng.standard_normal(lead + (n_out, n_in)) / np.sqrt(n_in),
         rng.standard_normal(lead + (n_out,)))
        for n_in, n_out in zip(sizes[:-1], sizes[1:])
    ]
    return x, layers


def per_layer_chain(layers, x, activation):
    act = ad.tanh if activation == "tanh" else ad.relu
    h = ad.constant(x)
    for w, b in layers[:-1]:
        h = act(ad.affine(w, h, b))
    w, b = layers[-1]
    return ad.affine(w, h, b)


class TestMlp:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden_layers", [1, 2])
    @pytest.mark.parametrize("B", [1, 64])
    def test_equals_per_layer_chain_bitwise(self, activation, hidden_layers, B):
        rng = np.random.default_rng(hidden_layers * 100 + B)
        x, arrays = mlp_instance(rng, [9] + [7] * hidden_layers + [5], B)
        probe = ad.constant(rng.standard_normal((5, B)))
        results = []
        for forward in (ad.mlp, per_layer_chain):
            layers = [(ad.parameter(w), ad.parameter(b)) for w, b in arrays]
            with ad.Tape() as tape:
                out = forward(layers, x, activation)
                loss = ad.reduce_sum(ad.mul(out, probe))
            tape.backward(loss)
            grads = [t.grad.tobytes() for pair in layers for t in pair]
            results.append([out.data.tobytes()] + grads)
        assert results[0] == results[1]

    def test_one_tape_record(self):
        x, arrays = mlp_instance(np.random.default_rng(0), [4, 6, 6, 3], 8)
        layers = [(ad.parameter(w), ad.parameter(b)) for w, b in arrays]
        with ad.Tape() as tape:
            ad.mlp(layers, x, "tanh")
        assert len(tape.records) == 1
        assert tape.records[0][1] == tuple(t for pair in layers for t in pair)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("B", [1, 64])
    def test_stacked_forward_equals_single_runs_bitwise(self, activation, B):
        M = 3
        x, stacked = mlp_instance(np.random.default_rng(B), [9, 7, 7, 5], B, M=M)
        outs = ad.mlp_forward(stacked, x, activation)
        for m in range(M):
            single = ad.mlp_forward([(w[m], b[m]) for w, b in stacked], x, activation)
            for layer_out, single_out in zip(outs, single):
                assert layer_out[m].tobytes() == single_out.tobytes()
