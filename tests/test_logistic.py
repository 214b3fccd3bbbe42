import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize
from scipy.special import expit

from rarerisk.dataset import SynthSpec, synthesize
from rarerisk.errors import FitError, SingularMatrixError
from rarerisk.logistic import _expit, fit_logistic, predict_logistic

from conftest import binary_dataset


def brute_force_mle(X, y):
    """Independent optimizer for the logistic negative log-likelihood."""

    def nll(beta):
        z = beta[0] + X @ beta[1:]
        return float(np.sum(np.logaddexp(0.0, z) - y * z))

    k = X.shape[1] + 1
    res = minimize(nll, np.zeros(k), method="BFGS", options={"gtol": 1e-10})
    return res.x


class TestFit:
    def test_intercept_only_for_constant_columns(self):
        X = np.zeros((20, 3), np.uint8)
        y = np.array([1] * 5 + [0] * 15)
        ds = binary_dataset(X, y)
        m = fit_logistic(ds)
        assert m.converged
        assert np.all(m.coefficients == 0.0)
        probs = predict_logistic(m, X)
        assert np.allclose(probs, 0.25, atol=1e-9)

    def test_balanced_predictor_gets_zero_coefficient(self):
        # x is on for exactly half of each response class: odds ratio 1.
        X = np.array([[1], [1], [0], [0]] * 4, np.uint8)
        y = np.array([1, 0, 1, 0] * 4)
        m = fit_logistic(binary_dataset(X, y))
        assert m.converged
        assert abs(m.coefficients[0]) < 1e-8

    def test_separation_detected(self):
        X = np.array([[1]] * 12 + [[0]] * 12, np.uint8)
        y = np.array([1] * 12 + [0] * 12)
        m = fit_logistic(binary_dataset(X, y))
        assert not m.converged
        assert "separat" in m.diagnostic

    def test_constant_response_rejected(self):
        ds = binary_dataset(np.array([[0], [1]]), np.array([1, 1]))
        with pytest.raises(FitError):
            fit_logistic(ds)

    def test_duplicate_columns_raise_with_names(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=40, dtype=np.uint8)
        X = np.column_stack([a, a])
        y = rng.integers(0, 2, size=40, dtype=np.uint8)
        y[0], y[1] = 0, 1
        with pytest.raises(SingularMatrixError) as exc:
            fit_logistic(binary_dataset(X, y, names=("dup1", "dup2")))
        assert set(exc.value.columns) >= {"dup1", "dup2"}

    def test_matches_brute_force_p1(self):
        rng = np.random.default_rng(11)
        X = rng.integers(0, 2, size=(80, 1), dtype=np.uint8)
        z = -0.5 + 1.2 * X[:, 0]
        y = (rng.random(80) < 1 / (1 + np.exp(-z))).astype(np.uint8)
        m = fit_logistic(binary_dataset(X, y))
        ref = brute_force_mle(X.astype(float), y.astype(float))
        assert m.converged
        assert abs(m.intercept - ref[0]) < 1e-6
        assert np.all(np.abs(m.coefficients - ref[1:]) < 1e-6)

    def test_matches_brute_force_p2(self):
        rng = np.random.default_rng(12)
        X = rng.integers(0, 2, size=(120, 2), dtype=np.uint8)
        z = -1.0 + 0.8 * X[:, 0] - 0.6 * X[:, 1]
        y = (rng.random(120) < 1 / (1 + np.exp(-z))).astype(np.uint8)
        m = fit_logistic(binary_dataset(X, y))
        ref = brute_force_mle(X.astype(float), y.astype(float))
        assert abs(m.intercept - ref[0]) < 1e-6
        assert np.all(np.abs(m.coefficients - ref[1:]) < 1e-6)

    def test_gradient_norm_below_tol(self):
        rng = np.random.default_rng(13)
        X = rng.integers(0, 2, size=(200, 4), dtype=np.uint8)
        z = -2.0 + X @ np.array([0.5, -0.5, 0.8, 0.0])
        y = (rng.random(200) < 1 / (1 + np.exp(-z))).astype(np.uint8)
        m = fit_logistic(binary_dataset(X, y))
        assert m.converged
        probs = predict_logistic(m, X)
        design = np.column_stack([np.ones(200), X.astype(float)])
        grad = design.T @ (y - probs)
        assert np.max(np.abs(grad)) < 1e-8

    def test_fitted_mean_equals_base_rate(self):
        rng = np.random.default_rng(14)
        X = rng.integers(0, 2, size=(300, 3), dtype=np.uint8)
        z = -2.5 + X @ np.array([0.7, 0.3, -0.4])
        y = (rng.random(300) < 1 / (1 + np.exp(-z))).astype(np.uint8)
        ds = binary_dataset(X, y)
        m = fit_logistic(ds)
        probs = predict_logistic(m, ds.X)
        assert abs(probs.mean() - y.mean()) < 1e-9


class TestPredict:
    def test_zero_intercept_gives_half(self):
        from rarerisk.logistic import LogisticModel

        m = LogisticModel(0.0, np.zeros(2), True, 1)
        probs = predict_logistic(m, np.array([[0, 1], [1, 1]], np.uint8))
        assert np.all(probs == 0.5)

    def test_intercept_only_five_percent(self):
        from rarerisk.logistic import LogisticModel

        rate = 0.05
        m = LogisticModel(np.log(rate / (1 - rate)), np.zeros(1), True, 1)
        probs = predict_logistic(m, np.array([[0], [1]], np.uint8))
        assert np.allclose(probs, rate, atol=1e-12)

    def test_dimension_mismatch(self):
        from rarerisk.logistic import LogisticModel

        m = LogisticModel(0.0, np.zeros(2), True, 1)
        with pytest.raises(FitError):
            predict_logistic(m, np.zeros((3, 3), np.uint8))

    def test_rare_event_probabilities_stay_low(self):
        # Weak planted effects at a 5% base rate: the conventional fit
        # never pushes a fitted probability past 0.5.
        spec = SynthSpec(
            n=6000,
            p=12,
            base_rate=0.05,
            effects=tuple([0.5] * 6 + [0.0] * 6),
            predictor_on_rates=tuple([0.5] * 12),
            seed=99,
        )
        ds = synthesize(spec)
        m = fit_logistic(ds)
        probs = predict_logistic(m, ds.X)
        assert m.converged
        assert probs.max() < 0.5


class TestExpit:
    # The private logistic against the compiled expit ufunc, bit for bit.
    EDGES = [
        0.0, -0.0, np.inf, -np.inf, np.nan,
        5e-324, -5e-324, 1e-310, -1e-310,
        2.2250738585072009e-308, -2.2250738585072009e-308,
        709.7827128933840, -709.7827128933840,
        709.7827128933841, -709.7827128933841,
        745.1332191019411, -745.1332191019411,
        36.0, -36.0, 1e300, -1e300,
    ]

    @staticmethod
    def assert_same_bits(x):
        x = np.asarray(x, np.float64)
        ours, theirs = _expit(x), expit(x)
        assert ours.shape == theirs.shape
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))

    def test_edges(self):
        self.assert_same_bits(self.EDGES)

    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40)))
    def test_random_values(self, x):
        self.assert_same_bits(x)

    @given(hnp.arrays(np.float64, st.integers(0, 200), elements=st.floats(-750, 750)))
    def test_values_where_exp_is_finite_or_near_overflow(self, x):
        self.assert_same_bits(x)
