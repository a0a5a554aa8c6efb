from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rarecp import experts
from rarecp.autodiff import EPS_NORM
from rarecp.checkpoint import load_checkpoint, save_checkpoint
from rarecp.conformal import WeightedSupport, build_interval
from rarecp.data import (
    CalibrationEntry,
    CalibrationStore,
    DatasetDescriptor,
    compute_descriptor,
    descriptor_features,
    normalize_context,
)
from rarecp.errors import DataError, NumericError
from rarecp.experts import (
    ExpertStack,
    FixedAffineMap,
    HypernetworkParams,
    RetrievalExpert,
    identity_map,
    normalize_keys,
    retrieve_supports,
    topk_retrieve,
)
from rarecp.gate import GateParams, gate_weights, mix_supports, mixed_support, rarecp_interval
from rarecp.training import ModelConfig


def make_store(rng, n=40, dim=6, residuals=None):
    store = CalibrationStore(n, dim)
    contexts = rng.standard_normal((n, dim))
    residuals = residuals if residuals is not None else rng.standard_normal(n)
    for i in range(n):
        store.append(CalibrationEntry(contexts[i], float(residuals[i]), i))
    return store


def make_expert(dim, latent=4, k=8, beta=12.0, seed=0, kind="hypernetwork", **kw):
    config = ModelConfig(top_k=k, beta=beta)
    if kind == "hypernetwork":
        encoder = HypernetworkParams(dim, latent, hidden_dim=16, hidden_layers=1,
                                     **{"activation": "tanh", "seed": seed, **kw})
        return RetrievalExpert(encoder=encoder, config=config)
    return RetrievalExpert(encoder=FixedAffineMap(dim, latent, seed=seed),
                           config=config, **kw)


def retrieve(expert, store, query, descriptor, normalize=True):
    """One expert's (k,) support positions and weights, as ``mixed_support`` gets them at M = 1.

    The store is conditioned on ``descriptor`` first, unless it already is.
    """
    if store.descriptor is not descriptor:
        store.condition(descriptor, normalize)
    positions, weights = retrieve_supports(ExpertStack.of([expert]), store, *store.query(query))
    return positions[0], weights[0]


def fold(A, b):
    """One (L, p) map and its (L,) bias as the (1, L, p + 1) stack ``normalize_keys`` reads."""
    return np.concatenate([A, b[:, None]], axis=1)[None]


def keyed_store(columns):
    """A store whose key inputs are the (p, n) ``columns``, oldest first, above a row of ones."""
    p, n = columns.shape
    store = CalibrationStore.from_arrays(columns.T, np.zeros(n))
    store.condition(DatasetDescriptor(0, np.zeros(p), np.ones(p), 0.0), normalize=False)
    return store


def all_scores(maps, query, columns):
    """Every column's float64 scores under each of the M ``maps``: (M, n), in column order."""
    n = columns.shape[1]
    positions, scores = normalize_keys(maps, query, keyed_store(columns), n)
    np.testing.assert_array_equal(positions, np.arange(n))
    return scores


class TestNormalizeKey:
    def test_identity_map_normalizes(self):
        # the query's key (3, 4) normalises to (0.6, 0.8): its scores against e1 and e2
        scores = all_scores(fold(np.eye(2), np.zeros(2)), np.array([3.0, 4.0]), np.eye(2))[0]
        np.testing.assert_allclose(scores, [0.6, 0.8], atol=1e-9)

    def test_unit_norm_and_sphere_identity(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        for _ in range(50):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            columns = np.column_stack([x, y])
            uu, uv = all_scores(fold(A, b), x, columns)[0]
            vu, vv = all_scores(fold(A, b), y, columns)[0]
            assert abs(np.sqrt(uu) - 1.0) < 1e-9 and abs(np.sqrt(vv) - 1.0) < 1e-9
            lhs = uu + vv - 2.0 * uv  # |u - v|^2
            rhs = 2.0 - 2.0 * vu
            assert abs(lhs - rhs) < 1e-9

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        query = rng.standard_normal(5)
        x = rng.standard_normal((5, 1))
        u1 = all_scores(fold(A, b), query, x)[0]
        u2 = all_scores(fold(5.0 * A, 5.0 * b), query, x)[0]
        np.testing.assert_allclose(u1, u2, atol=1e-12)

    def test_stacked_scores_are_unit_key_products(self):
        rng = np.random.default_rng(2)
        maps = rng.standard_normal((3, 4, 7))
        query, X = rng.standard_normal(6), rng.standard_normal((6, 50))
        scores = all_scores(maps, query, X)
        for m, (A, b) in enumerate(zip(maps[..., :-1], maps[..., -1])):
            keys = A @ X + b[:, None]
            keys /= np.sqrt(np.sum(keys**2, axis=0) + EPS_NORM)
            q = A @ query + b
            np.testing.assert_allclose(scores[m], q @ keys / np.sqrt(q @ q + EPS_NORM),
                                       rtol=0, atol=1e-14)

    def test_overflowing_key_raises(self):
        maps = fold(np.eye(2), np.zeros(2))
        with pytest.raises(NumericError):
            all_scores(maps, np.ones(2), np.array([[1e200], [0.0]]))
        with pytest.raises(NumericError):
            all_scores(maps, np.array([1e200, 0.0]), np.eye(2))

    def test_duplicate_contexts_score_bitwise_equal_anywhere_in_the_ring(self):
        # a context stored at ring positions 0, 699, 700, 1001 and 1499 (the
        # first and last, and on both sides of the oldest entry) scores the
        # same bits at each, so top-k ranks its copies oldest first
        rng = np.random.default_rng(3)
        dim, capacity = 9, 1500
        X = rng.standard_normal((capacity + 700, dim))
        dup = rng.standard_normal(dim)
        at = [0, 699, 700, 1001, 1499, 1500, 2199]  # chronological rows of the copies
        X[at] = dup
        store = CalibrationStore.from_arrays(X[:capacity], np.zeros(capacity))
        descriptor = compute_descriptor(X[:capacity])
        expert = make_expert(dim, latent=6, k=5, kind="fixed_affine")
        store.condition(descriptor)
        store.key_inputs()
        for t in range(capacity, X.shape[0]):
            store.append(CalibrationEntry(X[t], 0.0, t))
        times = store.time_indices()
        positions = np.flatnonzero(np.isin(times, at))
        assert times[positions].tolist() == [700, 1001, 1499, 1500, 2199]
        query_z, feats = normalize_context(dup, descriptor), descriptor_features(descriptor)
        stack = ExpertStack.of([expert])
        sel, _ = retrieve_supports(stack, store, query_z, feats)
        np.testing.assert_array_equal(sel[0], positions)
        _, scores = normalize_keys(stack.maps(query_z, feats), query_z, store, len(store))
        assert np.unique(scores[0, positions].view(np.uint64)).size == 1


def filtered_and_full(maps, query, store, k):
    """``normalize_keys`` with its float32 filter on whatever the store's size, and with it off."""
    with mock.patch.object(experts, "_FILTER_MIN_ENTRIES", 1):
        filtered = normalize_keys(maps, query, store, k)
    with mock.patch.object(experts, "_FILTER_MIN_ENTRIES", len(store) + 1):
        full = normalize_keys(maps, query, store, k)
    return filtered, full


@st.composite
def filter_cases(draw):
    """A ring-wrapped store, maps and a query, with ties, zeros or scales that stress the bound."""
    n, p, L, M = (draw(st.integers(1, hi)) for hi in (160, 40, 33, 3))
    k = draw(st.integers(1, n + 2))
    appended = draw(st.integers(0, 2 * n))
    kind = draw(st.sampled_from(["plain", "duplicates", "near-ties", "zero-keys", "signed-zeros"]))
    # maps at 1e40 or 1e-40, and keys of 1e25 columns, leave float32's range;
    # keys of 1e-30 columns all lie near the maps' bias, so they nearly tie
    map_scale = draw(st.sampled_from([1.0, 1e-12, 1e12, 1e40, 1e-40]))
    column_scale = draw(st.sampled_from([1.0, 1e-30, 1e25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n + appended, p))
    maps = rng.standard_normal((M, L, p + 1))
    query = rng.standard_normal(p)
    rows = rng.choice(n + appended, size=max(2, (n + appended) // 3))
    if kind == "duplicates":  # exact ties, at the top when the query is the copied context
        X[rows] = query
    elif kind == "near-ties":  # apart in float64, not in float32
        X[rows] = query + 1e-12 * rng.standard_normal((rows.size, p))
    elif kind == "zero-keys":  # keys of norm 0 or about 1e-9
        maps[..., -1] = -maps[..., :-1] @ X[rows[0]]
        noise = 1e-9 * rng.standard_normal((rows.size, p))
        X[rows] = X[rows[0]] + noise * (rng.random(rows.size) < 0.5)[:, None]
    elif kind == "signed-zeros":
        for a in (X, maps, query):
            a[rng.random(a.shape) < 0.3] = -0.0
            a[rng.random(a.shape) < 0.1] = 0.0
    return X * column_scale, n, maps * map_scale, query * column_scale, k


class TestCandidateFilter:
    @given(filter_cases())
    @settings(max_examples=300, deadline=None)
    def test_selects_exactly_the_float64_top_k(self, case):
        X, n, maps, query, k = case
        store = keyed_store(X[:n].T)
        if X.shape[0] > n:
            store.key_mirror()  # kept by the appends that wrap the ring
        for t in range(n, X.shape[0]):
            store.append(CalibrationEntry(X[t], 0.0, t))
        (positions, scores), (every, full) = filtered_and_full(maps, query, store, k)
        assert every.tolist() == list(range(n))
        assert np.all(np.diff(positions) > 0)
        assert scores.tobytes() == np.ascontiguousarray(full[:, positions]).tobytes()
        for picks, row in zip(topk_retrieve(scores, k), full):
            oracle = np.lexsort((np.arange(n), -row))[:k]
            np.testing.assert_array_equal(positions[picks], oracle)

    @pytest.mark.parametrize("where", ["map", "column"])
    def test_a_float64_overflow_still_raises(self, where):
        rng = np.random.default_rng(9)
        X, maps = rng.standard_normal((1500, 4)), rng.standard_normal((2, 3, 5))
        if where == "map":
            maps[1] *= 1e200
        else:
            X[700] = 1e200
        store = keyed_store(X.T)
        for threshold in (1, 10**6):
            with mock.patch.object(experts, "_FILTER_MIN_ENTRIES", threshold):
                with pytest.raises(NumericError):
                    normalize_keys(maps, rng.standard_normal(4), store, 5)

    def test_keeps_about_k_candidates_on_a_bench_sized_store(self, monkeypatch):
        """Loosening the bound until every entry is re-scored would give the speed back."""
        from numpy.lib.stride_tricks import sliding_window_view

        from rarecp import RareCP
        from rarecp.synthetic import clean_component, synth_regime_series, two_regime_config

        window, fit_n, store_n, steps = 64, 128, 4096, 100
        cfg = two_regime_config(block_length=100, n_blocks=45)
        series, _ = synth_regime_series(cfg, seed=7)
        clean = clean_component(cfg)
        X = np.column_stack([sliding_window_view(series.values, window)[:-1], clean[window:]])
        forecast, y = clean[window:], series.values[window:]
        est = RareCP(epochs=1, teacher_epochs=1).fit(X[:fit_n], (y - forecast)[:fit_n])
        rows = slice(fit_n, fit_n + store_n)
        est.set_params(capacity=store_n).seed_store(X[rows], (y - forecast)[rows])
        counts = []

        def counted(*args, _candidates=experts._candidates):
            mask = _candidates(*args)
            counts.append(mask.sum(axis=1))
            return mask

        monkeypatch.setattr(experts, "_candidates", counted)
        for t in range(fit_n + store_n, fit_n + store_n + steps):
            est.predict_interval(X[t], forecast[t])
            est.observe(X[t], y[t] - forecast[t])
        assert len(counts) == steps
        assert np.all(np.median(counts, axis=0) <= 2 * est.top_k)


def top(scores, k):
    """``topk_retrieve`` of one score row."""
    return topk_retrieve(np.asarray(scores, dtype=np.float64)[None], k)[0]


class TestTopkRetrieve:
    def test_basic(self):
        np.testing.assert_array_equal(top([0.9, 0.1, 0.5], 2), [0, 2])

    def test_tie_break_smaller_index(self):
        np.testing.assert_array_equal(top([0.5, 0.5, 0.5], 2), [0, 1])

    def test_k_clamped_to_size(self):
        np.testing.assert_array_equal(sorted(top([3.0, 1.0, 2.0], 10)), [0, 1, 2])

    @given(
        st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=60),
        st.integers(1, 70),
    )
    @example([-0.0, 0.0, -1.0, -0.0, 0.0], 3)  # signed zeros tie
    @example([0.3] * 40, 1)  # all equal
    @example([-0.0] * 7, 9)  # all equal, k >= n
    @settings(max_examples=300, deadline=None)
    def test_equals_lexsort_under_heavy_ties(self, values, k):
        scores = np.array(values)
        oracle = np.lexsort((np.arange(scores.size), -scores))[:k]
        np.testing.assert_array_equal(top(scores, k), oracle)

    def test_ranks_every_row_of_a_block_as_alone(self):
        rng = np.random.default_rng(2)
        for _ in range(2_000):
            M, n = int(rng.integers(1, 11)), int(rng.integers(1, 30))
            scores = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(M, n))  # force ties
            k = int(rng.integers(1, n + 3))
            oracle = [sorted(range(n), key=lambda i: (-row[i], i))[:k] for row in scores]
            np.testing.assert_array_equal(topk_retrieve(scores, k), oracle)


class TestEmitExpertMap:
    def test_zero_final_layer_emits_zero_map(self):
        encoder = HypernetworkParams(5, 3, hidden_dim=8, hidden_layers=1, activation="tanh",
                                     seed=0, final_weight_scale=0.0)
        encoder.start_at(np.zeros((3, 5)), np.zeros(3))
        descriptor = compute_descriptor(np.random.default_rng(0).standard_normal((10, 5)))
        A, b = encoder.emit(np.ones(5), descriptor_features(descriptor))
        np.testing.assert_array_equal(A, 0.0)
        np.testing.assert_array_equal(b, 0.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        descriptor = compute_descriptor(rng.standard_normal((10, 5)))
        query = rng.standard_normal(5)
        maps = []
        for _ in range(2):
            encoder = HypernetworkParams(5, 3, hidden_dim=8, hidden_layers=1, activation="tanh",
                                         seed=42)
            A, b = encoder.emit(query, descriptor_features(descriptor))
            maps.append((A.tobytes(), b.tobytes()))
        assert maps[0] == maps[1]

    def test_output_dimensions(self):
        encoder = HypernetworkParams(7, 4, hidden_dim=8, hidden_layers=2, activation="tanh", seed=1)
        descriptor = compute_descriptor(np.random.default_rng(1).standard_normal((10, 7)))
        A, b = encoder.emit(np.zeros(7), descriptor_features(descriptor))
        assert A.shape == (4, 7)
        assert b.shape == (4,)
        assert A.size + b.size == 4 * (7 + 1)

    def test_identity_init_mimics_raw_cosine(self):
        # near-zero final weights + identity bias: retrieval scores should
        # track cosine similarity of the (z-scored) raw contexts
        rng = np.random.default_rng(4)
        dim, latent = 6, 6
        encoder = HypernetworkParams(dim, latent, hidden_dim=8, hidden_layers=1,
                                     activation="tanh", seed=2, final_weight_scale=1e-6)
        contexts = rng.standard_normal((30, dim))
        descriptor = compute_descriptor(contexts)
        A, b = encoder.emit(contexts[0], descriptor_features(descriptor))
        np.testing.assert_allclose(A, identity_map(latent, dim), atol=1e-3)
        np.testing.assert_allclose(b, 0.0, atol=1e-3)


class TestExpertSupport:
    def test_single_entry_store(self):
        store = CalibrationStore(4, 3)
        store.append(CalibrationEntry(np.array([1.0, 2.0, 3.0]), 2.0, 0))
        descriptor = compute_descriptor(store.contexts())
        expert = make_expert(3)
        positions, weights = retrieve(expert, store, np.array([1.0, 2.0, 3.0]), descriptor)
        support = WeightedSupport(store.residuals()[positions], weights)
        np.testing.assert_array_equal(support.residuals, [2.0])
        np.testing.assert_array_equal(support.weights, [1.0])

    def test_sharp_beta_approaches_argmax(self):
        rng = np.random.default_rng(5)
        store = make_store(rng, n=30, dim=4)
        descriptor = compute_descriptor(store.contexts())
        sharp = make_expert(4, latent=4, k=8, beta=1e6, seed=1)
        _, weights = retrieve(sharp, store, rng.standard_normal(4), descriptor)
        assert weights[0] > 0.999  # the support is ranked best first

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_weights_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        store = make_store(rng, n=int(rng.integers(1, 25)), dim=4)
        descriptor = compute_descriptor(store.contexts())
        expert = make_expert(4, seed=seed % 5)
        positions, weights = retrieve(expert, store, rng.standard_normal(4), descriptor)
        assert abs(weights.sum() - 1.0) < 1e-9
        assert len(positions) == min(8, len(store))
        assert len(np.unique(positions)) == len(positions)

    def test_empty_store_rejected(self):
        store = CalibrationStore(4, 3)
        descriptor = compute_descriptor(np.ones((2, 3)))
        expert = make_expert(3)
        with pytest.raises(DataError):
            retrieve(expert, store, np.ones(3), descriptor)

    def test_equal_version_stores_retrieve_their_own_neighbours(self):
        # retrieval state never outlives a call: two stores built by the same
        # sequence of mutations each get the brute-force neighbours of their
        # own contexts
        rng = np.random.default_rng(7)
        stores = [
            CalibrationStore.from_arrays(rng.standard_normal((10, 4)), rng.standard_normal(10))
            for _ in range(2)
        ]
        descriptor = compute_descriptor(np.vstack([s.contexts() for s in stores]))
        expert = make_expert(4, k=3, kind="fixed_affine")
        query = rng.standard_normal(4)
        A, b = expert.encoder.A, expert.encoder.b
        for store in stores:
            positions, _ = retrieve(expert, store, query, descriptor)
            keys = A @ normalize_context(store.contexts(), descriptor).T + b[:, None]
            keys /= np.linalg.norm(keys, axis=0)
            q = A @ normalize_context(query, descriptor) + b
            brute = np.argsort(-(q @ keys), kind="stable")[:3]
            np.testing.assert_array_equal(positions, brute)

    def test_scale_invariance_of_supports(self):
        # scaling (A, b) jointly by c > 0 leaves keys, hence supports, unchanged
        rng = np.random.default_rng(8)
        store = make_store(rng, n=20, dim=4)
        descriptor = compute_descriptor(store.contexts())
        expert = make_expert(4, kind="fixed_affine")
        query = rng.standard_normal(4)
        before = retrieve(expert, store, query, descriptor)
        expert.encoder.A *= 3.0
        expert.encoder.b *= 3.0
        after = retrieve(expert, store, query, descriptor)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_allclose(before[1], after[1], atol=1e-9)


GEMM_TIE = 1e-12  # oracle score gap the stacked GEMM's rounding may reorder


def _oracle_retrieval(expert, contexts, query, descriptor, normalize):
    """One expert by brute force: full normalisation, per-expert keys, full sort."""
    if normalize:
        qz = (query - descriptor.mu) / descriptor.sigma
        cz = (contexts - descriptor.mu) / descriptor.sigma
    else:
        qz, cz = query, contexts
    A, b = expert.encoder.emit(qz, descriptor_features(descriptor))
    keys = A @ cz.T + b[:, None]
    keys = keys / np.sqrt((keys * keys).sum(axis=0) + 1e-12)
    q = A @ qz + b
    q = q / np.sqrt(q @ q + 1e-12)
    scores = q @ keys
    order = np.lexsort((np.arange(scores.size), -scores))
    k = min(expert.config.top_k, scores.size)
    sel = order[:k]
    z = scores[sel] * expert.config.beta
    weights = np.exp(z - z.max())
    tied = k < scores.size and scores[order[k - 1]] - scores[order[k]] <= GEMM_TIE
    return scores, sel, weights / weights.sum(), tied


def _check_retrieval(retrieved, oracle):
    positions, got_weights = retrieved
    scores, sel, weights, tied = oracle
    if tied:
        # a GEMM-rounding tie at the k-th place: any of the tied entries may win
        np.testing.assert_allclose(
            np.sort(scores[positions]), np.sort(scores[sel]), rtol=0, atol=GEMM_TIE,
        )
        return False
    # GEMM rounding may also reorder exact ties inside the support, so the
    # support is compared as a set (by index) and must be ranked by score
    assert np.all(np.diff(scores[positions]) <= GEMM_TIE)
    got, want = np.argsort(positions), np.argsort(sel)
    np.testing.assert_array_equal(positions[got], sel[want])
    np.testing.assert_allclose(got_weights[got], weights[want], rtol=1e-12, atol=0)
    return True


@st.composite
def retrieval_cases(draw):
    """A store, its appends and a set of experts, with ties and sigma-floor features."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 4))
    capacity = draw(st.integers(1, 9))
    n_seed = draw(st.integers(1, 12))
    n_rows = n_seed + draw(st.integers(0, 24))  # up to several wrap-arounds
    kind = draw(st.sampled_from(["random", "duplicates", "constant"]))
    if kind == "duplicates":
        rows = rng.standard_normal((3, dim))[rng.integers(0, 3, size=n_rows)]
    else:
        rows = rng.standard_normal((n_rows, dim))
    if kind == "constant":
        rows[:n_seed, 0] = 2.5  # seeded constant: sigma sits at the floor
        rows[n_seed:, 0] = 2.5 + 1e-3 * rng.integers(-1, 2, size=n_rows - n_seed)
    residuals = rng.choice([-1.0, 0.0, 0.5, 2.0], size=n_rows) + 0.01 * np.arange(n_rows)
    encoder = draw(st.sampled_from(["hypernetwork", "fixed_affine"]))  # one kind per model
    k = draw(st.integers(1, 6))  # capacity < k is common
    beta = draw(st.sampled_from([1.0, 12.0]))
    experts = [make_expert(dim, latent=3, k=k, beta=beta, seed=m, kind=encoder)
               for m in range(draw(st.integers(1, 3)))]
    return dict(rows=rows, residuals=residuals, capacity=capacity, n_seed=n_seed,
                experts=experts, normalize=draw(st.booleans()),
                first_request=draw(st.integers(0, n_rows - n_seed)),
                queries=rng.standard_normal((n_rows, dim)))


class TestStackedRetrievalOracle:
    """The stacked GEMM, ring-order store keys and linear top-k change no result."""

    @given(retrieval_cases())
    @settings(max_examples=150, deadline=None)
    def test_retrieve_and_mixed_support_match_brute_force(self, case):
        rows, residuals, n_seed = case["rows"], case["residuals"], case["n_seed"]
        experts, normalize = ExpertStack.of(case["experts"]), case["normalize"]
        store = CalibrationStore.from_arrays(rows[:n_seed], residuals[:n_seed], case["capacity"])
        descriptor = compute_descriptor(rows[:n_seed])
        store.condition(descriptor, normalize)
        gate = GateParams(rows.shape[1], len(experts), hidden_dim=3, activation="tanh", seed=1)
        w_last = gate.layers[-1][0]
        w_last[:] = np.random.default_rng(2).standard_normal(w_last.shape)
        for t in range(n_seed, rows.shape[0] + 1):
            if t > n_seed:
                store.append(CalibrationEntry(rows[t - 1], float(residuals[t - 1]), t - 1))
            if t - n_seed < case["first_request"]:
                continue  # the key inputs are built lazily on first request
            query = case["queries"][t - 1]
            contexts, stored = store.contexts(), store.residuals()
            oracles = [_oracle_retrieval(e, contexts, query, descriptor, normalize)
                       for e in experts]
            exact = [
                _check_retrieval(retrieve(e, store, query, descriptor, normalize), oracle)
                for e, oracle in zip(experts, oracles)
            ]
            support, union, pi = mixed_support(store, experts, gate, query)
            if not all(exact):
                continue
            qz = (query - descriptor.mu) / descriptor.sigma if normalize else query
            logits = gate.logits(qz, descriptor_features(descriptor))
            oracle_pi = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
            merged = np.zeros(len(stored))
            for p, (_, sel, weights, _) in zip(oracle_pi, oracles):
                merged[sel] += p * weights
            oracle_union = np.flatnonzero(merged > 0)
            np.testing.assert_allclose(pi, oracle_pi, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(union, oracle_union)
            np.testing.assert_array_equal(support.residuals, stored[union])
            np.testing.assert_allclose(support.weights, merged[union], rtol=1e-12, atol=0)
            alpha = 0.3
            cum = np.cumsum(merged[union][np.argsort(stored[union], kind="stable")])
            if np.any(np.abs(cum[:, None] - [alpha / 2, 1 - alpha / 2]) < 1e-12):
                continue  # a weight boundary sits on a quantile level
            got = rarecp_interval(0.0, query, store, experts, gate, alpha)
            want = build_interval(0.0, WeightedSupport(stored[union], merged[union]), alpha)
            np.testing.assert_allclose([got.lower, got.upper], [want.lower, want.upper],
                                       rtol=1e-12, atol=0)


def old_serving_tail(positions, scores, config, logits):
    """The per-expert serving tail that one batched pass replaced, kept as an oracle.

    Each expert ranks its own score row by ``np.lexsort`` and weighs its
    picks with a 1-D softmax; the gate's logits get the same softmax; the
    supports merge through ``np.unique`` and ``np.add.at``.
    """
    def softmax(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    sel = [positions[np.lexsort((np.arange(row.size), -row))[: config.top_k]] for row in scores]
    weights = [softmax(row[np.lexsort((np.arange(row.size), -row))[: config.top_k]]
                       / (1.0 / config.beta)) for row in scores]
    pi = softmax(logits / 1.0)
    union, inverse = np.unique(np.concatenate(sel), return_inverse=True)
    merged = np.zeros(union.size)
    np.add.at(merged, inverse, np.concatenate([p * w for p, w in zip(pi, weights)]))
    return np.array(sel), np.array(weights), pi, union, merged


def check_serving_tail(store, stack, gate, query):
    """One query's batched tail against ``old_serving_tail``, bit for bit; the stacked supports."""
    query_z, feats = store.query(query)
    every, scores = normalize_keys(stack.maps(query_z, feats), query_z, store, stack.config.top_k)
    sel, weights = retrieve_supports(stack, store, query_z, feats)
    pi = gate_weights(gate, query_z, feats)
    support, union = mix_supports(pi, sel, weights, store.residuals())
    want = old_serving_tail(every, scores, stack.config, gate.logits(query_z, feats))
    for got, oracle in zip((sel, weights, pi, union, support.weights), want):
        assert got.dtype == oracle.dtype and got.shape == oracle.shape
        assert got.tobytes() == oracle.tobytes()
    assert support.residuals.tobytes() == store.residuals()[want[3]].tobytes()
    return sel


@st.composite
def serving_tail_cases(draw):
    """A wrapped ring, up to 10 experts of one config, ties and duplicated contexts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, capacity = draw(st.integers(2, 5)), draw(st.integers(1, 40))
    n_rows = capacity + draw(st.integers(0, 2 * capacity))  # appends wrap the ring
    kind = draw(st.sampled_from(["random", "duplicates", "tied"]))
    rows = rng.standard_normal((n_rows, dim))
    if kind == "duplicates":  # exact score ties among the copies
        rows = rows[rng.integers(0, min(3, n_rows), size=n_rows)]
    encoder = "fixed_affine" if kind == "tied" else draw(st.sampled_from(
        ["hypernetwork", "fixed_affine"]))
    k = draw(st.integers(1, capacity + 3))  # k >= n is common
    beta = draw(st.sampled_from([1.0, 12.0, 1e3]))
    experts = [make_expert(dim, latent=3, k=k, beta=beta, seed=m, kind=encoder)
               for m in range(draw(st.integers(1, 10)))]
    if kind == "tied":  # every key is the bias: every score ties
        for e in experts:
            e.encoder.A[:] = 0.0
    queries = np.vstack([rows[rng.integers(0, n_rows, size=2)], rng.standard_normal((2, dim))])
    return dict(rows=rows, residuals=rng.standard_normal(n_rows), capacity=capacity,
                experts=experts, queries=queries, normalize=draw(st.booleans()),
                filtered=draw(st.booleans()))


class TestServingTailOracle:
    """One row top-k, one row softmax and one merge give the per-expert tail's bits."""

    @given(serving_tail_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_expert_tail_bit_for_bit(self, case):
        rows, capacity = case["rows"], case["capacity"]
        store = CalibrationStore.from_arrays(rows[:capacity], case["residuals"][:capacity])
        store.condition(compute_descriptor(rows[:capacity]), case["normalize"])
        store.key_mirror()  # kept by the appends that wrap the ring
        for t in range(capacity, rows.shape[0]):
            store.append(CalibrationEntry(rows[t], float(case["residuals"][t]), t))
        stack = ExpertStack.of(case["experts"])
        gate = GateParams(rows.shape[1], len(stack), hidden_dim=3, activation="tanh", seed=1)
        gate.layers[-1][0][:] = np.random.default_rng(2).standard_normal(gate.layers[-1][0].shape)
        # the float32 filter on whatever the store's size, or every entry scored
        threshold = 1 if case["filtered"] else len(store) + 1
        with mock.patch.object(experts, "_FILTER_MIN_ENTRIES", threshold):
            for query in case["queries"]:
                check_serving_tail(store, stack, gate, query)

    def test_a_position_in_all_ten_supports_merges_exactly(self):
        """More than 8 adds to one position: a pairwise sum would regroup them."""
        rng = np.random.default_rng(4)
        store = CalibrationStore.from_arrays(rng.standard_normal((6, 3)), rng.standard_normal(6))
        store.condition(compute_descriptor(store.contexts()))
        stack = ExpertStack.of([make_expert(3, latent=3, k=8, beta=3.0, seed=m)
                                for m in range(10)])
        gate = GateParams(3, 10, hidden_dim=3, activation="tanh", seed=1)
        gate.layers[-1][0][:] = rng.standard_normal(gate.layers[-1][0].shape)
        sel = check_serving_tail(store, stack, gate, rng.standard_normal(3))
        assert np.bincount(sel.ravel()).min() == 10

    def test_a_stack_refuses_experts_of_mixed_configs(self):
        experts_ = [make_expert(3, k=4), make_expert(3, k=5, seed=1)]
        with pytest.raises(DataError, match="one ModelConfig"):
            ExpertStack.of(experts_)
        assert ExpertStack.of([make_expert(3, k=4), make_expert(3, k=4, seed=1)]).config.top_k == 4


class TestDescriptorFeatures:
    def test_scale_free(self):
        rng = np.random.default_rng(9)
        contexts = rng.standard_normal((50, 5)) * 3.0 + 1.0
        d1 = compute_descriptor(contexts, dataset_id=2)
        d2 = compute_descriptor(contexts * 8.0, dataset_id=2)
        np.testing.assert_allclose(
            descriptor_features(d1), descriptor_features(d2), atol=1e-9
        )

    def test_dimension(self):
        d = compute_descriptor(np.random.default_rng(0).standard_normal((10, 5)))
        assert descriptor_features(d).shape == (7,)


class TestCheckpointRoundtrip:
    def test_save_load_preserves_retrieval(self, small_trained, small_regime_problem,
                                            tmp_path):
        components = small_trained["components"]
        path = tmp_path / "ckpt.json"
        save_checkpoint(components, path)
        loaded = load_checkpoint(path)

        rng = np.random.default_rng(10)
        store = CalibrationStore(30, components.model.context_dim)
        for i in range(30):
            store.append(
                CalibrationEntry(
                    rng.standard_normal(components.model.context_dim),
                    float(rng.standard_normal()),
                    i,
                )
            )
        store.condition(compute_descriptor(store.contexts()))
        query_z, feats = store.query(rng.standard_normal(components.model.context_dim))
        positions, weights = retrieve_supports(components.experts, store, query_z, feats)
        loaded_positions, loaded_weights = retrieve_supports(loaded.experts, store, query_z, feats)
        assert positions.tobytes() == loaded_positions.tobytes()
        assert weights.tobytes() == loaded_weights.tobytes()

    def test_save_is_byte_deterministic(self, small_trained, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(small_trained["components"], p1)
        save_checkpoint(small_trained["components"], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_raises_data_error(self, small_trained, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_trained["components"], path)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(DataError, match="truncated or malformed"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["drop_experts", "mistype_gate", "not_an_object"])
    def test_malformed_document_raises_data_error(self, small_trained, tmp_path, edit,
                                                  rewrite_checkpoint):
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_trained["components"], path)

        def edit_manifest(doc):
            if edit == "drop_experts":
                doc["tensors"] = [t for t in doc["tensors"]
                                  if not t["name"].startswith("experts.")]
            elif edit == "mistype_gate":
                next(t for t in doc["tensors"] if t["name"] == "gate.w0")["shape"] = "wide"
            else:
                doc = [doc]
            return doc

        rewrite_checkpoint(path, edit_manifest)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_version_guard(self, small_trained, tmp_path, rewrite_checkpoint):
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_trained["components"], path)
        rewrite_checkpoint(path, lambda doc: {**doc, "format_version": 99})
        with pytest.raises(DataError):
            load_checkpoint(path)
