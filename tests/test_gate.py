import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecp.conformal import WeightedSupport, baseline_weights, build_interval
from rarecp.data import CalibrationEntry, CalibrationStore, compute_descriptor
from rarecp.errors import DataError
from rarecp.experts import ExpertConfig, ExpertStack, FixedAffineMap, RetrievalExpert
from rarecp.gate import GateParams, gate_weights, mix_supports, rarecp_interval


def mix(pi, positions, weights, residuals):
    """``mix_supports`` of (M, k) supports given as nested lists."""
    return mix_supports(np.asarray(pi, dtype=np.float64), np.asarray(positions),
                        np.asarray(weights, dtype=np.float64),
                        np.asarray(residuals, dtype=np.float64))


def random_supports(rng, m, k, n):
    """``m`` experts' supports of ``k`` distinct positions each among ``n``, weights summing to 1."""
    positions = np.array([rng.choice(n, size=k, replace=False) for _ in range(m)])
    weights = rng.random((m, k)) + 1e-3
    return positions, weights / weights.sum(axis=1, keepdims=True)


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
        w_last[:] = 0.0
        b_last[:] = [10.0, 0.0, 0.0]
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
        b_last[:] = [0.3, -0.2, 0.8]
        pi1 = gate_weights(gate, *read(contexts[0], descriptor))
        b_last += 5.0
        pi2 = gate_weights(gate, *read(contexts[0], descriptor))
        np.testing.assert_allclose(pi1, pi2, atol=1e-12)


class TestMixSupports:
    def test_all_mass_on_one_expert(self):
        support, union = mix([1.0, 0.0], [[0, 2], [1, 3]], [[0.7, 0.3], [0.6, 0.4]],
                             [1.0, 5.0, -1.0, 7.0])
        np.testing.assert_array_equal(union, [0, 1, 2, 3])
        # expert 2's positions receive zero weight
        np.testing.assert_allclose(support.weights, [0.7, 0.0, 0.3, 0.0])
        np.testing.assert_array_equal(support.residuals, [1.0, 5.0, -1.0, 7.0])

    def test_overlap_weights_sum(self):
        support, union = mix([0.5, 0.5], [[4], [4]], [[1.0], [1.0]], [0, 0, 0, 0, 2.5])
        np.testing.assert_array_equal(union, [4])
        np.testing.assert_allclose(support.weights, [1.0])
        np.testing.assert_allclose(support.residuals, [2.5])

    def test_disjoint_supports_halved(self):
        support, _ = mix([0.5, 0.5], [[0, 1], [2, 3]], [[0.5, 0.5], [0.5, 0.5]],
                         [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(support.weights, [0.25] * 4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_total_weight_one(self, seed):
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        positions, weights = random_supports(rng, m, k, 20)
        pi = rng.random(m) + 1e-3
        pi /= pi.sum()
        support, union = mix_supports(pi, positions, weights, rng.standard_normal(20))
        assert abs(support.weights.sum() - 1.0) < 1e-9
        assert len(union) <= positions.size
        np.testing.assert_array_equal(union, np.unique(positions))

    def test_mixed_cdf_error_bounded_by_worst_expert(self):
        # sup |mixed CDF - reference CDF| <= max over experts of their distance
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, k = int(rng.integers(2, 4)), int(rng.integers(2, 10))
            positions, weights = random_supports(rng, m, k, 30)
            residuals = rng.standard_normal(30)
            pi = rng.random(m)
            pi /= pi.sum()
            mixed, _ = mix_supports(pi, positions, weights, residuals)
            grid = np.linspace(-3, 3, 41)
            ref = 0.5 * (1.0 + np.tanh(grid))  # arbitrary reference CDF

            def sup_dist(support):
                vals = np.array(
                    [support.weights[support.residuals <= g].sum() for g in grid]
                )
                return np.abs(vals - ref).max()

            supports = [WeightedSupport(residuals[pos], w) for pos, w in zip(positions, weights)]
            assert sup_dist(mixed) <= max(sup_dist(s) for s in supports) + 1e-12

    def test_pi_validation(self):
        with pytest.raises(DataError):
            mix([0.5, 0.4], [[0], [0]], [[1.0], [1.0]], [0.0])
        with pytest.raises(DataError):
            mix([1.0], [[0], [0]], [[1.0], [1.0]], [0.0])


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
