import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecp.conformal import WeightedSupport, baseline_weights, build_interval
from rarecp.data import CalibrationEntry, CalibrationStore, compute_descriptor
from rarecp.errors import DataError
from rarecp.experts import (
    ExpertConfig,
    ExpertStack,
    FixedAffineMap,
    RetrievalExpert,
    RetrievalResult,
)
from rarecp.gate import GateParams, gate_weights, mix_supports, rarecp_interval


def make_result(indices, weights, residuals):
    return RetrievalResult(
        support_indices=np.asarray(indices),
        scores=np.zeros(len(indices)),
        weights=np.asarray(weights, dtype=np.float64),
        residuals=np.asarray(residuals, dtype=np.float64),
    )


def make_store(rng, n, dim, residuals=None):
    store = CalibrationStore(n, dim)
    contexts = rng.standard_normal((n, dim))
    residuals = residuals if residuals is not None else rng.standard_normal(n)
    for i in range(n):
        store.append(CalibrationEntry(contexts[i], float(residuals[i]), i))
    return store


def read(query, descriptor):
    """The query and descriptor features as a store conditioned on ``descriptor`` reads them."""
    store = CalibrationStore(1, descriptor.dim)
    store.condition(descriptor)
    return store.query(query)


class TestGateWeights:
    def test_zero_init_is_uniform(self):
        rng = np.random.default_rng(0)
        contexts = rng.standard_normal((20, 5))
        descriptor = compute_descriptor(contexts)
        gate = GateParams(5, 3, hidden_dim=4, seed=0)
        pi = gate_weights(gate, *read(contexts[0], descriptor))
        np.testing.assert_allclose(pi, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_dominant_logit(self):
        rng = np.random.default_rng(1)
        contexts = rng.standard_normal((20, 4))
        descriptor = compute_descriptor(contexts)
        gate = GateParams(4, 3, hidden_dim=4, seed=0)
        # force the final layer into a fixed dominant-logit configuration
        w_last, b_last = gate.layers[-1]
        w_last.data = np.zeros_like(w_last.data)
        b_last.data = np.array([10.0, 0.0, 0.0])
        pi = gate_weights(gate, *read(contexts[0], descriptor))
        assert pi[0] > 0.9999

    def test_single_expert(self):
        rng = np.random.default_rng(2)
        contexts = rng.standard_normal((10, 4))
        descriptor = compute_descriptor(contexts)
        gate = GateParams(4, 1, hidden_dim=2, seed=0)
        pi = gate_weights(gate, *read(contexts[0], descriptor))
        np.testing.assert_allclose(pi, [1.0])

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(3)
        contexts = rng.standard_normal((10, 4))
        descriptor = compute_descriptor(contexts)
        gate = GateParams(4, 3, hidden_dim=4, seed=1)
        w_last, b_last = gate.layers[-1]
        b_last.data = np.array([0.3, -0.2, 0.8])
        pi1 = gate_weights(gate, *read(contexts[0], descriptor))
        b_last.data = b_last.data + 5.0
        pi2 = gate_weights(gate, *read(contexts[0], descriptor))
        np.testing.assert_allclose(pi1, pi2, atol=1e-12)


class TestMixSupports:
    def test_all_mass_on_one_expert(self):
        r1 = make_result([0, 2], [0.7, 0.3], [1.0, -1.0])
        r2 = make_result([1], [1.0], [5.0])
        support, union = mix_supports(np.array([1.0, 0.0]), [r1, r2])
        np.testing.assert_array_equal(union, [0, 1, 2])
        # expert 2's index receives zero weight
        np.testing.assert_allclose(support.weights, [0.7, 0.0, 0.3])

    def test_overlap_weights_sum(self):
        r1 = make_result([4], [1.0], [2.5])
        r2 = make_result([4], [1.0], [2.5])
        support, union = mix_supports(np.array([0.5, 0.5]), [r1, r2])
        np.testing.assert_array_equal(union, [4])
        np.testing.assert_allclose(support.weights, [1.0])
        np.testing.assert_allclose(support.residuals, [2.5])

    def test_disjoint_supports_halved(self):
        r1 = make_result([0, 1], [0.5, 0.5], [1.0, 2.0])
        r2 = make_result([2, 3], [0.5, 0.5], [3.0, 4.0])
        support, _ = mix_supports(np.array([0.5, 0.5]), [r1, r2])
        np.testing.assert_allclose(support.weights, [0.25] * 4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_total_weight_one(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        results = []
        for _ in range(m):
            k = int(rng.integers(1, 8))
            idx = rng.choice(20, size=k, replace=False)
            w = rng.random(k) + 1e-3
            w /= w.sum()
            results.append(make_result(idx, w, rng.standard_normal(k)))
        pi = rng.random(m) + 1e-3
        pi /= pi.sum()
        support, union = mix_supports(pi, results)
        assert abs(support.weights.sum() - 1.0) < 1e-9
        assert len(union) <= sum(len(r.support_indices) for r in results)

    def test_mixed_cdf_error_bounded_by_worst_expert(self):
        # sup |mixed CDF - reference CDF| <= max over experts of their distance
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = int(rng.integers(2, 4))
            results = []
            for _ in range(m):
                k = int(rng.integers(2, 10))
                idx = rng.choice(30, size=k, replace=False)
                w = rng.random(k)
                w /= w.sum()
                results.append(make_result(idx, w, rng.standard_normal(k)))
            pi = rng.random(m)
            pi /= pi.sum()
            mixed, _ = mix_supports(pi, results)
            grid = np.linspace(-3, 3, 41)
            ref = 0.5 * (1.0 + np.tanh(grid))  # arbitrary reference CDF

            def sup_dist(support):
                vals = np.array(
                    [support.weights[support.residuals <= g].sum() for g in grid]
                )
                return np.abs(vals - ref).max()

            supports = [WeightedSupport(r.residuals, r.weights) for r in results]
            assert sup_dist(mixed) <= max(sup_dist(s) for s in supports) + 1e-12

    def test_pi_validation(self):
        r = make_result([0], [1.0], [0.0])
        with pytest.raises(DataError):
            mix_supports(np.array([0.5, 0.4]), [r, r])
        with pytest.raises(DataError):
            mix_supports(np.array([1.0]), [r, r])


class TestRarecpInterval:
    def _setup(self, rng, n=53, dim=4, residuals=None):
        store = make_store(rng, n, dim, residuals)
        store.condition(compute_descriptor(store.contexts()))
        return store

    def test_single_entry_store_degenerate(self):
        rng = np.random.default_rng(4)
        store = CalibrationStore(4, 3)
        store.append(CalibrationEntry(np.array([1.0, 0.0, 2.0]), 1.5, 0))
        store.condition(compute_descriptor(store.contexts()))
        experts = ExpertStack.of([RetrievalExpert(
            encoder=FixedAffineMap(3, 3, seed=0), config=ExpertConfig()
        )])
        gate = GateParams(3, 1, hidden_dim=2, seed=0)
        interval = rarecp_interval(10.0, np.array([1.0, 0.0, 2.0]), store, experts, gate, 0.2)
        assert interval.lower == pytest.approx(11.5)
        assert interval.upper == pytest.approx(11.5)

    def test_degenerate_expert_matches_uniform_splitcp(self):
        # one expert, k >= n, near-infinite softmax temperature (beta -> 0)
        # reduces the mixture to uniform weights over the whole store
        rng = np.random.default_rng(5)
        n = 53
        store = self._setup(rng, n=n)
        experts = ExpertStack.of([RetrievalExpert(
            encoder=FixedAffineMap(4, 4, seed=0),
            config=ExpertConfig(top_k=n, beta=1e-9),
        )])
        gate = GateParams(4, 1, hidden_dim=2, seed=0)
        query = rng.standard_normal(4)
        got = rarecp_interval(2.0, query, store, experts, gate, 0.2)
        expected = build_interval(2.0, baseline_weights(store.residuals()), 0.2)
        assert got.lower == pytest.approx(expected.lower, abs=1e-9)
        assert got.upper == pytest.approx(expected.upper, abs=1e-9)

    def test_symmetric_residuals_symmetric_interval(self):
        rng = np.random.default_rng(6)
        half = rng.uniform(0.5, 2.0, size=40)
        residuals = np.concatenate([half, -half])
        store = self._setup(rng, n=80, residuals=residuals)
        experts = ExpertStack.of([RetrievalExpert(
            encoder=FixedAffineMap(4, 4, seed=1),
            config=ExpertConfig(top_k=80, beta=1e-9),
        )])
        gate = GateParams(4, 1, hidden_dim=2, seed=0)
        interval = rarecp_interval(0.0, rng.standard_normal(4), store, experts, gate, 0.2)
        # symmetric support: quantile granularity bounds the asymmetry
        gap = np.abs(np.sort(residuals))
        tol = np.diff(np.sort(gap)).max() + 1e-9
        assert abs(interval.upper + interval.lower) <= tol

    def test_support_size_at_most_m_times_k(self, small_trained):
        components = small_trained["components"]
        rng = np.random.default_rng(7)
        dim = components.model.context_dim
        store = make_store(rng, 60, dim)
        store.condition(compute_descriptor(store.contexts()))
        from rarecp.gate import mixed_support

        support, union, pi = mixed_support(
            store, components.experts, components.gate, rng.standard_normal(dim)
        )
        max_size = components.model.n_experts * components.model.top_k
        assert len(union) <= max_size
        assert abs(pi.sum() - 1.0) < 1e-9
        assert abs(support.weights.sum() - 1.0) < 1e-9

    def test_empty_store_rejected(self):
        store = CalibrationStore(3, 2)
        store.condition(compute_descriptor(np.ones((2, 2))))
        gate = GateParams(2, 1, hidden_dim=2, seed=0)
        experts = ExpertStack.of([RetrievalExpert(
            encoder=FixedAffineMap(2, 2, seed=0), config=ExpertConfig()
        )])
        with pytest.raises(DataError):
            rarecp_interval(0.0, np.ones(2), store, experts, gate, 0.2)
