import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduct import LabelSet, RunConfig, inject_anchors, softmax_with_temperature, uniform_prior
from transduct.errors import ConfigError, EmptyInput, NonFinite, OutOfRange, ShapeMismatch


class TestUniformPrior:
    def test_values(self):
        np.testing.assert_allclose(uniform_prior(2, 3), np.full((2, 3), 1 / 3))
        np.testing.assert_allclose(uniform_prior(1, 2), [[0.5, 0.5]])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            uniform_prior(0, 2)


class TestSoftmax:
    def test_symmetry(self):
        for t in (0.5, 1.0, 7.0):
            np.testing.assert_allclose(softmax_with_temperature([[0.0, 0.0]], t), [[0.5, 0.5]])

    def test_direct_value(self):
        out = softmax_with_temperature([[2.0, 0.0]], 1.0)
        np.testing.assert_allclose(out, [[0.8808, 0.1192]], atol=1e-4)

    def test_small_temperature_sharpens(self):
        out = softmax_with_temperature([[2.0, 0.0]], 0.1)
        assert out[0, 0] > 0.9999

    def test_huge_temperature_flattens(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 4))
        out = softmax_with_temperature(logits, 1e6)
        assert np.abs(out - 0.25).max() <= 1e-5

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            softmax_with_temperature([[np.inf, 0.0]], 1.0)

    def test_logits_must_be_2d(self):
        with pytest.raises(ShapeMismatch, match="^logits must be 2-d$"):
            softmax_with_temperature([2.0, 0.0])

    @pytest.mark.parametrize("temperature", [0.0, -1.0, np.nan, np.inf])
    def test_temperature_must_be_finite_and_positive(self, temperature):
        # an infinite temperature would otherwise give uniform rows
        with pytest.raises(ConfigError, match="^temperature must be finite and positive, got "):
            softmax_with_temperature([[2.0, 0.0]], temperature)

    @given(st.integers(1, 8), st.integers(2, 6), st.integers(0, 3000))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance_and_rows(self, n, m, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, m)) * 10
        shift = rng.normal(size=(n, 1)) * 100
        a = softmax_with_temperature(logits, 1.0)
        b = softmax_with_temperature(logits + shift, 1.0)
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("logits, temperature, expected", [
        ([[1.7e308, -1.7e308]], 1.0, [[1.0, 0.0]]),  # the subtraction overflows
        ([[1e308, 0.0]], 0.1, [[1.0, 0.0]]),  # the division overflows
        ([[1e308, 9e307]], 0.1, [[1.0, 0.0]]),  # both entries overflow, 1e308 apart
        ([[-1e308, 1e308, 1e308]], 0.5, [[0.0, 0.5, 0.5]]),  # a tie among them, and both overflows
    ])
    def test_finite_logits_beyond_the_float64_range(self, logits, temperature, expected):
        out = softmax_with_temperature(logits, temperature)
        np.testing.assert_allclose(out, expected, rtol=1e-15, atol=0)
        assert np.isfinite(out).all()

    @given(st.integers(1, 6), st.integers(2, 5), st.floats(1e-3, 1e3), st.integers(0, 3000))
    @settings(max_examples=100, deadline=None)
    def test_in_range_logits_keep_the_plain_formula_bit_for_bit(self, n, m, t, seed):
        logits = np.random.default_rng(seed).normal(size=(n, m)) * 50
        scaled = logits / t
        raw = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        np.testing.assert_array_equal(softmax_with_temperature(logits, t), raw / raw.sum(axis=1)[:, None])

    @given(st.floats(0.1, 10.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_logits(self, t, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(1, 4))
        bumped = logits.copy()
        bumped[0, 2] += 1.0
        assert softmax_with_temperature(bumped, t)[0, 2] > softmax_with_temperature(logits, t)[0, 2]


class TestInjectAnchors:
    def test_basic(self):
        out = inject_anchors([[0.5, 0.5], [0.5, 0.5]], LabelSet(2, [1, -1]))
        np.testing.assert_array_equal(out, [[0, 1], [0.5, 0.5]])

    def test_empty_anchor_set(self):
        x = [[0.3, 0.7]]
        np.testing.assert_array_equal(inject_anchors(x, LabelSet(2, [-1])), x)

    def test_all_rows_anchored(self):
        out = inject_anchors(np.full((3, 2), 0.5), LabelSet(2, [0, 1, 0]))
        np.testing.assert_array_equal(out, [[1, 0], [0, 1], [1, 0]])

    @given(st.integers(2, 8), st.integers(2, 4), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, n, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.dirichlet(np.ones(m), size=n)
        vector = np.full(n, -1)
        for i in range(0, n, 2):
            vector[i] = rng.integers(m)
        anchors = LabelSet(m, vector)
        once = inject_anchors(x, anchors)
        np.testing.assert_array_equal(inject_anchors(once, anchors), once)

    def test_anchors_must_fit_the_matrix(self):
        x = np.full((3, 2), 0.5)
        for short_or_long in ([0, -1], [0, -1, -1, 1]):
            with pytest.raises(ShapeMismatch):
                inject_anchors(x, LabelSet(2, short_or_long))
        with pytest.raises(OutOfRange, match="anchor class 2 out of range for m=2"):
            inject_anchors(x, LabelSet(3, [0, -1, 2]))
        # a label set with more classes than columns is fine while its
        # anchors use only the columns there are
        np.testing.assert_array_equal(inject_anchors(x, LabelSet(3, [-1, 1, -1]))[1], [0, 1])


def test_prior_config_validation():
    def config(temperature):
        return RunConfig(method="gtg", features_path="f.csv", logits_path="l.csv", anchor_fraction=0.5,
                         temperature=temperature)

    with pytest.raises(ConfigError):
        config(0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            config(bad)
