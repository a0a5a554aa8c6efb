import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecp.conformal import (
    AciState,
    PredictionInterval,
    WeightedSupport,
    aci_update,
    baseline_interval,
    baseline_weights,
    build_interval,
    weighted_cdf,
    weighted_quantile,
    winkler_score,
)
from rarecp.data import CalibrationEntry, CalibrationStore
from rarecp.errors import DataError, NumericError
from rarecp.estimators import SplitConformal


def oracle_cdf(residuals, weights, rho):
    """Independent oracle: direct indicator summation."""
    return sum(w for r, w in zip(residuals, weights) if r <= rho)


def oracle_quantile(residuals, weights, tau):
    """Independent oracle: scan the sorted support accumulating weight."""
    order = np.argsort(residuals, kind="stable")
    cum = 0.0
    for idx in order:
        cum += weights[idx]
        if cum >= tau:
            return residuals[idx]
    return residuals[order[-1]]


def random_support(rng, n=None):
    n = n or rng.integers(1, 20)
    residuals = rng.standard_normal(n)
    weights = rng.random(n) + 1e-3
    weights /= weights.sum()
    return WeightedSupport(residuals, weights)


@pytest.fixture
def three_point_support():
    return WeightedSupport(np.array([-2.0, 0.0, 3.0]), np.array([0.25, 0.5, 0.25]))


class TestWeightedCdf:
    def test_mass_at_zero(self, three_point_support):
        assert weighted_cdf(three_point_support, 0.0) == pytest.approx(0.75)

    def test_extremes(self, three_point_support):
        assert weighted_cdf(three_point_support, -2.001) == 0.0
        assert weighted_cdf(three_point_support, 3.0) == pytest.approx(1.0)
        assert weighted_cdf(three_point_support, 10.0) == pytest.approx(1.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            support = random_support(rng)
            rho = rng.standard_normal()
            expected = oracle_cdf(support.residuals, support.weights, rho)
            assert abs(weighted_cdf(support, rho) - expected) < 1e-12

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(12)
        support = random_support(rng, 15)
        rhos = np.sort(rng.standard_normal(50))
        values = [weighted_cdf(support, r) for r in rhos]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestWeightedQuantile:
    def test_median(self, three_point_support):
        assert weighted_quantile(three_point_support, 0.5) == 0.0

    def test_boundary_hit_counts(self, three_point_support):
        # cumulative weight reaches exactly 0.25 at the first residual
        assert weighted_quantile(three_point_support, 0.25) == -2.0

    def test_single_item(self):
        support = WeightedSupport(np.array([1.7]), np.array([1.0]))
        for tau in (0.01, 0.5, 0.99):
            assert weighted_quantile(support, tau) == 1.7

    def test_tau_out_of_range(self, three_point_support):
        with pytest.raises(DataError):
            weighted_quantile(three_point_support, 0.0)
        with pytest.raises(DataError):
            weighted_quantile(three_point_support, 1.0)

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            support = random_support(rng)
            tau = float(rng.uniform(0.001, 0.999))
            expected = oracle_quantile(support.residuals, support.weights, tau)
            assert weighted_quantile(support, tau) == expected

    def test_ties_accumulate(self):
        support = WeightedSupport(
            np.array([1.0, 1.0, 2.0]), np.array([0.3, 0.3, 0.4])
        )
        assert weighted_quantile(support, 0.5) == 1.0

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_quantile_nondecreasing_in_tau(self, seed, tau):
        rng = np.random.default_rng(seed)
        support = random_support(rng)
        delta = 0.005
        lo = weighted_quantile(support, tau)
        hi = weighted_quantile(support, min(tau + delta, 0.9999))
        assert lo <= hi


class TestBuildInterval:
    def test_asymmetric_example(self):
        support = WeightedSupport(np.array([-1.0, 3.0]), np.array([0.5, 0.5]))
        interval = build_interval(10.0, support, 0.2)
        assert (interval.lower, interval.upper) == (9.0, 13.0)

    def test_symmetric_support_centered(self):
        support = WeightedSupport(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        interval = build_interval(4.0, support, 0.2)
        assert interval.lower + interval.upper == pytest.approx(8.0)

    def test_alpha_near_one_stays_ordered(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            support = random_support(rng)
            interval = build_interval(0.0, support, 0.999)
            assert interval.lower <= interval.upper

    @pytest.mark.parametrize("forecast", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_forecast_rejected(self, three_point_support, forecast):
        with pytest.raises(DataError, match="forecast"):
            build_interval(forecast, three_point_support, 0.2)

    def test_overflowing_bound_raises(self):
        support = WeightedSupport(np.array([-1e308, 1e308]), np.array([0.5, 0.5]))
        with pytest.raises(NumericError):
            build_interval(1e308, support, 0.2)

    def test_ordering_invariant_random(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            support = random_support(rng)
            alpha = float(rng.uniform(0.01, 0.99))
            interval = build_interval(float(rng.standard_normal()), support, alpha)
            assert interval.lower <= interval.upper


class TestWinklerScore:
    def test_covered_is_width(self):
        assert winkler_score(0.0, 10.0, 5.0, 0.2) == 10.0

    def test_upper_miss(self):
        assert winkler_score(0.0, 10.0, 12.0, 0.2) == pytest.approx(30.0)

    def test_boundary_counts_as_covered(self):
        assert winkler_score(0.0, 10.0, 10.0, 0.2) == 10.0
        assert winkler_score(0.0, 10.0, 0.0, 0.2) == 10.0

    def test_lower_miss(self):
        assert winkler_score(-1.0, 1.0, -2.0, 0.5) == pytest.approx(2.0 + 4.0)

    @given(
        st.floats(-5, 5),
        st.floats(0, 5),
        st.floats(-20, 20),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_score_at_least_width(self, lower, width, y, alpha):
        upper = lower + width
        actual_width = upper - lower
        score = winkler_score(lower, upper, y, alpha)
        assert score >= actual_width
        covered = lower <= y <= upper
        if covered:
            assert score == actual_width
        elif max(lower - y, y - upper) > 1e-9:  # meaningful miss, beyond ulp noise
            assert score > actual_width


class TestAci:
    def test_miss_decreases_alpha(self):
        state = AciState.initial(0.2, 0.01)
        new = aci_update(state, covered=False)
        assert new.alpha_t == pytest.approx(0.192)

    def test_cover_increases_alpha(self):
        state = AciState.initial(0.2, 0.01)
        new = aci_update(state, covered=True)
        assert new.alpha_t == pytest.approx(0.202)

    def test_repeated_misses_clip_at_floor(self):
        state = AciState.initial(0.2, 0.05, alpha_min=0.01, alpha_max=0.99)
        for _ in range(100):
            state = aci_update(state, covered=False)
        assert state.alpha_t == pytest.approx(0.01)

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_alpha_stays_in_bounds(self, outcomes):
        state = AciState.initial(0.2, 0.03)
        for covered in outcomes:
            state = aci_update(state, covered)
            assert state.alpha_min <= state.alpha_t <= state.alpha_max

    def test_invalid_start(self):
        with pytest.raises(DataError):
            AciState(alpha_t=0.999, alpha_target=0.2, gamma=0.01)


class TestBaselineWeights:
    def test_uniform(self):
        support = baseline_weights(np.arange(4.0), mode="uniform")
        np.testing.assert_allclose(support.weights, 0.25)

    def test_nexcp_geometric(self):
        support = baseline_weights(np.array([1.0, 2.0, 3.0]), "nexcp", 0.5)
        np.testing.assert_allclose(support.weights, [1 / 7, 2 / 7, 4 / 7])

    def test_nexcp_lambda_one_is_uniform(self):
        residuals = np.arange(10.0)
        a = baseline_weights(residuals, "nexcp", 1.0)
        b = baseline_weights(residuals, "uniform")
        np.testing.assert_allclose(a.weights, b.weights)

    def test_unknown_mode(self):
        with pytest.raises(DataError):
            baseline_weights(np.arange(3.0), "magic")


class TestWeightedSupportValidation:
    def test_empty_forbidden(self):
        with pytest.raises(DataError):
            WeightedSupport(np.array([]), np.array([]))

    def test_negative_weight(self):
        with pytest.raises(DataError):
            WeightedSupport(np.array([1.0, 2.0]), np.array([1.5, -0.5]))

    def test_sum_must_be_one(self):
        with pytest.raises(DataError):
            WeightedSupport(np.array([1.0, 2.0]), np.array([0.5, 0.6]))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            WeightedSupport(np.array([np.nan, 2.0]), np.array([0.5, 0.5]))

    def test_interval_covers_endpoints(self):
        interval = PredictionInterval(lower=1.0, upper=2.0, alpha_used=0.2)
        assert interval.covers(1.0) and interval.covers(2.0)
        assert not interval.covers(2.0000001)


class TestBaselineInterval:
    """The sorted-window path gives exactly the full-sort intervals."""

    @given(
        st.integers(1, 8),
        st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0]), min_size=1, max_size=40),
        st.sampled_from([0.5, 0.9, 0.99, 1.0]),
        st.floats(0.01, 0.99),
        st.sampled_from([-3.0, 0.0, 1.25]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort_after_every_append(self, capacity, values, lam, alpha, forecast):
        store = CalibrationStore(capacity, 1)
        for t, value in enumerate(values):
            store.append(CalibrationEntry(np.zeros(1), value, t))
            residuals = store.residuals()
            for mode, a in (("uniform", 0.2), ("uniform", alpha), ("nexcp", alpha)):
                got = baseline_interval(forecast, store, a, mode=mode, nexcp_lambda=lam)
                expected = build_interval(
                    forecast, baseline_weights(residuals, mode=mode, nexcp_lambda=lam), a
                )
                assert (got.lower, got.upper, got.alpha_used) == (
                    expected.lower, expected.upper, expected.alpha_used
                )

    def test_matches_full_sort_at_the_bench_scale(self):
        """300 online steps of a 4096-entry window with ties, -0.0 and 0.0, bit for bit."""
        rng = np.random.default_rng(18)
        tied = np.array([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0])

        def draw(n):  # half tied values and signed zeros, half distinct ones
            return np.where(rng.random(n) < 0.5, rng.choice(tied, n), rng.standard_normal(n))

        lam, online = 0.99, draw(300)
        uniform = SplitConformal(capacity=4096).fit(None, draw(5000))
        nexcp = SplitConformal(weighting="nexcp", nexcp_lambda=lam, capacity=4096)
        nexcp.fit(None, uniform.store_.residuals())
        aci = AciState.initial(0.2, 0.05)
        for t, residual in enumerate(online):
            forecast = (0.0, -0.0, float(rng.standard_normal()))[t % 3]
            for est, mode, alpha in ((uniform, "uniform", 0.2), (uniform, "uniform", aci.alpha_t),
                                     (nexcp, "nexcp", 0.2)):
                got = est.predict_interval(forecast, alpha)
                support = baseline_weights(est.store_.residuals(), mode, lam)
                expected = build_interval(forecast, support, alpha)
                assert np.array([got.lower, got.upper, got.alpha_used]).tobytes() == np.array(
                    [expected.lower, expected.upper, expected.alpha_used]).tobytes()
            aci = aci_update(aci, got.covers(forecast + residual))
            for est in (uniform, nexcp):
                est.observe(residual)
        assert len(uniform.store_) == len(nexcp.store_) == 4096

    def test_rejects_bad_arguments(self):
        store = CalibrationStore(3, 1)
        with pytest.raises(DataError):
            baseline_interval(0.0, store, 0.2)
        store.append(CalibrationEntry(np.zeros(1), 1.0, 0))
        with pytest.raises(DataError):
            baseline_interval(0.0, store, 0.2, mode="magic")
        with pytest.raises(DataError):
            baseline_interval(0.0, store, 0.2, mode="nexcp", nexcp_lambda=1.5)
        with pytest.raises(DataError):
            baseline_interval(float("inf"), store, 0.2)

    def test_alpha_whose_upper_level_rounds_to_one_is_refused(self):
        """1 - 1e-17 / 2 rounds to 1.0, outside (0, 1): the level check must stay."""
        assert 1.0 - 1e-17 / 2.0 == 1.0
        residuals = np.arange(4.0)
        with pytest.raises(DataError, match="tau"):
            build_interval(0.0, baseline_weights(residuals), 1e-17)
        store = CalibrationStore.from_arrays(np.zeros((4, 1)), residuals)
        for mode in ("uniform", "nexcp"):
            with pytest.raises(DataError, match="tau"):
                baseline_interval(0.0, store, 1e-17, mode=mode)
        with pytest.raises(DataError, match="tau"):
            SplitConformal().fit(None, residuals).predict_interval(0.0, 1e-17)
