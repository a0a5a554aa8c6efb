import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecp import autodiff as ad
from rarecp import gradcheck


class TestBackwardBasics:
    def test_sum_of_squares_gradient(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_unused_parameter_gets_no_gradient(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        y = ad.parameter(np.array([3.0]))
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.square(x))
        tape.backward(loss)
        assert y.grad is None

    def test_fanout_accumulates(self):
        x = ad.parameter(np.array([2.0]))
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.add(ad.mul(x, x), ad.mul(x, x)))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        with ad.Tape() as tape:
            out = ad.square(x)
        with pytest.raises(ValueError):
            tape.backward(out)

    def test_no_tape_means_no_recording(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        out = ad.square(x)
        assert out.requires_grad is False

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((4, 3))
        xv = rng.standard_normal(3)

        def run():
            w = ad.parameter(W)
            with ad.Tape() as tape:
                loss = ad.reduce_sum(ad.tanh(ad.matmul(w, ad.constant(xv))))
            tape.backward(loss)
            return w.grad.tobytes()

        assert run() == run()


    def test_threads_record_only_their_own_primitives(self):
        """Two threads taping at the same time: each tape holds exactly its thread's records."""
        n_steps = 200
        barrier = threading.Barrier(2)
        results = {}

        def build(name, primitive):
            x = ad.parameter(np.arange(1.0, 4.0))
            barrier.wait()
            with ad.Tape() as tape:
                y = x
                for _ in range(n_steps):
                    y = primitive(y)
                    barrier.wait(timeout=10)  # interleave the two threads step by step
                loss = ad.reduce_sum(y)
            tape.backward(loss)
            results[name] = (tape, x)

        threads = [
            threading.Thread(target=build, args=("scale", lambda y: ad.scale(y, 1.0))),
            threading.Thread(target=build, args=("tanh", ad.tanh)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        for name in ("scale", "tanh"):
            tape, x = results[name]
            assert len(tape.records) == n_steps + 1
            assert all(out.data.shape == (3,) for out, _, _ in tape.records[:-1])
        scale_tape, scale_x = results["scale"]
        np.testing.assert_array_equal(scale_x.grad, np.ones(3))
        ins = {id(t) for _, inputs, _ in scale_tape.records for t in inputs}
        outs = {id(out) for out, _, _ in results["tanh"][0].records}
        assert not ins & outs
        assert not ad._ACTIVE.stack  # nothing leaks onto this thread


    def test_backward_runs_once_and_releases_each_vjp(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.tanh(x))
        tape.backward(loss)
        assert [vjp for _, _, vjp in tape.records] == [None, None]
        with pytest.raises(ValueError, match="once"):
            tape.backward(loss)


def out_of_place_backward(tape, loss):
    """Leaf gradients as the backward pass summed them before it added in place:
    every fan-in a new array, ``held + partial``, in reverse record order."""
    grads, tensors = {id(loss): np.ones_like(loss.data)}, {}
    for out, inputs, vjp in reversed(tape.records):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, p in zip(inputs, vjp(g)):
            if p is None or not t.requires_grad:
                continue
            p = p(None) if callable(p) else p
            grads[id(t)] = p if id(t) not in grads else grads[id(t)] + p
            tensors[id(t)] = t
    return {key: g for key, g in grads.items() if not tensors[key]._produced}


def _graphs():
    """name -> f(x, c) building a scalar loss; ``c`` is a constant like ``x``."""
    return {
        # both partials of add are its upstream gradient itself
        "add_x_x": lambda x, c: ad.reduce_sum(ad.mul(ad.add(x, x), c)),
        "add_h_h": lambda x, c: ad.reduce_sum(ad.mul(ad.add(ad.tanh(x), ad.tanh(x)), c)),
        # add_const hands back g itself; h feeds four consumers, x three
        "used_many_times": lambda x, c: (lambda h: ad.reduce_sum(ad.mul(
            ad.add(ad.add(h, h), ad.add_const(h, 1.0)), ad.mul(h, ad.add(x, ad.mul(x, x))))))(
                ad.tanh(ad.mul(x, c))),
        # an accumulating partial first (fresh), then plain ones added into it
        "accumulating_first": lambda x, c: ad.add(
            ad.reduce_sum(ad.mul(ad.tanh(x), c)), ad.sq_distance(x, c, 0.5)),
        # add hands h the array it hands k, then an accumulating partial arrives
        "accumulating_last": lambda x, c: (lambda h, k: ad.add(
            ad.sq_distance(h, c, 2.0), ad.reduce_sum(ad.add(h, k))))(
                ad.tanh(x), ad.tanh(ad.mul(x, c))),
        "two_accumulating": lambda x, c: ad.add(
            ad.sq_distance(x, c, 0.5), ad.sq_distance(x, 2.0 * c, 3.0)),
    }


class TestInPlaceAccumulation:
    """``Tape.backward`` adds into a gradient sum in place only when it owns it."""

    @pytest.mark.parametrize("name", sorted(_graphs()))
    def test_never_writes_into_an_array_a_vjp_handed_out(self, monkeypatch, name):
        rng = np.random.default_rng(sorted(_graphs()).index(name))
        x0, c = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        handed = []  # (array, copy) for every upstream gradient and plain partial
        finish = ad._finish

        def spying_finish(out_data, inputs, vjp):
            def spy(g):
                partials = vjp(g)
                for a in (g, *partials):
                    if isinstance(a, np.ndarray):
                        handed.append((a, a.copy()))
                return partials
            return finish(out_data, inputs, spy)

        monkeypatch.setattr(ad, "_finish", spying_finish)
        x = ad.parameter(x0)
        with ad.Tape() as tape:
            loss = _graphs()[name](x, c)
        tape.backward(loss)
        assert handed
        for array, copy in handed:
            assert array.tobytes() == copy.tobytes()

        monkeypatch.setattr(ad, "_finish", finish)
        y = ad.parameter(x0)
        with ad.Tape() as tape:
            loss = _graphs()[name](y, c)
        (expected,) = out_of_place_backward(tape, loss).values()
        assert x.grad.tobytes() == expected.tobytes()

    def test_a_second_backward_adds_to_the_leaf_out_of_place(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        for _ in range(2):
            with ad.Tape() as tape:
                loss = ad.reduce_sum(ad.add(x, x))
            first = x.grad
            tape.backward(loss)
        assert first is not x.grad
        np.testing.assert_array_equal(first, [2.0, 2.0])
        np.testing.assert_array_equal(x.grad, [4.0, 4.0])


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name_err", gradcheck.primitive_checks(seed=3),
                             ids=lambda pair: pair[0])
    def test_vjp_matches_finite_differences(self, name_err):
        name, err = name_err
        assert err < gradcheck.PRIMITIVE_TOL, f"{name}: {err:.3e}"

    @pytest.mark.parametrize("seed", range(12))
    def test_every_vjp_matches_finite_differences_on_seed(self, seed):
        # the cases share one random stream, so each seed gives every case new inputs
        failed = [(name, err) for name, err in gradcheck.primitive_checks(seed)
                  if not err < gradcheck.PRIMITIVE_TOL]
        assert not failed

    def test_quadratic_is_machine_exact(self):
        x = ad.parameter(np.array([0.3, -1.2, 2.0]))
        err = ad.finite_diff_check(lambda: ad.reduce_sum(ad.square(x)), [x], h=1e-5)
        assert err < 1e-8

    def test_three_layer_network(self):
        rng = np.random.default_rng(1)
        W1 = ad.parameter(rng.standard_normal((6, 4)))
        b1 = ad.parameter(rng.standard_normal(6))
        W2 = ad.parameter(rng.standard_normal((3, 6)))
        b2 = ad.parameter(rng.standard_normal(3))
        W3 = ad.parameter(rng.standard_normal((1, 3)))
        b3 = ad.parameter(rng.standard_normal(1))
        xin = rng.standard_normal((4, 1))

        def f():
            return ad.reduce_sum(ad.mlp([(W1, b1), (W2, b2), (W3, b3)], xin, "tanh"))

        err = ad.finite_diff_check(f, [W1, b1, W2, b2, W3, b3], h=1e-5)
        assert err < 1e-4


class TestPrimitiveValues:
    def test_l2_normalize(self):
        np.testing.assert_allclose(
            ad.l2_normalize(np.array([3.0, 4.0])).data, [0.6, 0.8], atol=1e-9
        )

    def test_l2_normalize_zero_vector_is_defined(self):
        out = ad.l2_normalize(np.zeros(3)).data
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, 0.0)

    def test_softmax_uniform(self):
        np.testing.assert_allclose(ad.softmax_rows(np.zeros((1, 2)), 1.0).data, [[0.5, 0.5]])

    def test_softmax_extreme_scores_stable(self):
        out = ad.softmax_rows(np.array([[1e6, 0.0]]), 1.0).data
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)

    def test_softplus_value(self):
        out = ad.softplus_with_temperature(np.array([0.0]), 0.5).data
        assert out[0] == pytest.approx(0.5 * np.log(2.0))

    def test_softplus_large_inputs_stable(self):
        out = ad.softplus_with_temperature(np.array([1e4, -1e4]), 1e-4).data
        assert out[0] == pytest.approx(1e4)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_and_softplus_keep_the_branch_form(self):
        x = np.concatenate([np.random.default_rng(3).standard_normal(200) * 30,
                            [0.0, -0.0, 745.0, -745.0, 1e4, -1e4]])
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        assert np.array_equal(ad.sigmoid(x).data, expected)
        z = x / 0.3
        softplus = 0.3 * (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))
        assert np.array_equal(ad.softplus_with_temperature(x, 0.3).data, softplus)

    def test_gather_rows_accumulates_duplicates(self):
        x = ad.parameter(np.array([[1.0, 2.0, 3.0]]))
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.gather_rows(x, np.array([[0, 0, 2]])))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[2.0, 0.0, 1.0]])

    def test_no_nan_in_domain(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        for fn in (ad.tanh, ad.sigmoid, ad.relu, ad.exp, ad.square):
            assert np.all(np.isfinite(fn(x).data))
        assert np.all(np.isfinite(ad.log(np.abs(x) + 0.1).data))

    def test_loo_retrieval_scores_match_per_episode_maps(self):
        rng = np.random.default_rng(4)
        d_z, p, B = 3, 4, 6
        out = rng.standard_normal((d_z * (p + 1), B))
        ctx_t = rng.standard_normal((p, B))
        sel, scores = ad.loo_retrieval_scores(ad.constant(out), ctx_t, B - 1)
        for j in range(B):
            A = out[: d_z * p, j].reshape(d_z, p)
            b = out[d_z * p :, j]
            keys = ad.l2_normalize(A @ ctx_t + b[:, None]).data
            np.testing.assert_allclose(scores.data[j], keys[:, j] @ keys[:, sel[j]])
            assert sorted(sel[j]) == [c for c in range(B) if c != j]

    def test_gather_rows_values(self):
        x = np.arange(12.0).reshape(3, 4)
        idx = np.array([[0, 3], [1, 1], [2, 0]])
        np.testing.assert_array_equal(
            ad.gather_rows(ad.constant(x), idx).data,
            [[0.0, 3.0], [5.0, 5.0], [10.0, 8.0]],
        )

    def test_softmax_rows_matches_loop(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        batched = ad.softmax_rows(ad.constant(x), 0.7).data
        for j in range(4):
            e = np.exp(x[j] / 0.7 - (x[j] / 0.7).max())
            np.testing.assert_allclose(batched[j], e / e.sum(), atol=1e-12)


def textbook_adam(x, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam over a sequence of gradients, one out-of-place expression per line."""
    m, v = np.zeros_like(x), np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        x = x - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return x, m, v


class TestAdam:
    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from([(), (1,), (7,), (3, 5), (40, 3), (2, 2, 3)]),
        block=st.sampled_from([1, 4, 16, 1 << 14]),
        steps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_blocks_equal_the_textbook_update(self, shape, block, steps, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(shape)
        grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3) for _ in range(steps)]
        x = ad.parameter(x0)
        opt = ad.Adam([x], lr=3e-3)
        old_block, ad._ADAM_BLOCK = ad._ADAM_BLOCK, block
        try:
            for g in grads:
                x.grad = g.copy()
                opt.step()
                assert x.grad.tobytes() == g.tobytes()  # the gradient is only read
        finally:
            ad._ADAM_BLOCK = old_block
        expected, m, v = textbook_adam(x0, grads, 3e-3)
        assert x.data.tobytes() == np.asarray(expected).tobytes()
        assert opt._m[0].tobytes() == np.asarray(m).tobytes()
        assert opt._v[0].tobytes() == np.asarray(v).tobytes()

    def test_minimizes_quadratic(self):
        x = ad.parameter(np.array([5.0, -3.0]))
        opt = ad.Adam([x], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            with ad.Tape() as tape:
                loss = ad.reduce_sum(ad.square(x))
            tape.backward(loss)
            opt.step()
        assert np.all(np.abs(x.data) < 1e-2)

    def test_skips_params_without_grad(self):
        x = ad.parameter(np.array([1.0]))
        y = ad.parameter(np.array([2.0]))
        opt = ad.Adam([x, y], lr=0.5)
        opt.zero_grad()
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.square(x))
        tape.backward(loss)
        opt.step()
        assert y.data[0] == 2.0
        assert x.data[0] != 1.0
