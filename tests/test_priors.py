import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduct import (
    AnchorSet,
    apply_class_mask,
    inject_anchors,
    softmax_with_temperature,
    uniform_prior,
)
from transduct.errors import ConfigError, EmptyInput, NonFinite, ZeroRowSum
from transduct.priors import PriorConfig


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

    @given(st.floats(0.1, 10.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_logits(self, t, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(1, 4))
        bumped = logits.copy()
        bumped[0, 2] += 1.0
        assert softmax_with_temperature(bumped, t)[0, 2] > softmax_with_temperature(logits, t)[0, 2]


class TestClassMask:
    def test_exclusion_renormalizes(self):
        out = apply_class_mask([[1 / 3, 1 / 3, 1 / 3]], [{0, 2}])
        np.testing.assert_allclose(out, [[0.5, 0, 0.5]])

    def test_full_mask_is_noop(self):
        np.testing.assert_allclose(apply_class_mask([[0.8, 0.2]], [{0, 1}]), [[0.8, 0.2]])

    def test_conflicting_mask(self):
        with pytest.raises(ZeroRowSum):
            apply_class_mask([[1.0, 0.0]], [{1}])

    def test_empty_mask_rejected(self):
        with pytest.raises(ConfigError):
            apply_class_mask([[0.5, 0.5]], [set()])


class TestInjectAnchors:
    def test_basic(self):
        out = inject_anchors([[0.5, 0.5], [0.5, 0.5]], AnchorSet(((0, 1),)))
        np.testing.assert_array_equal(out, [[0, 1], [0.5, 0.5]])

    def test_empty_anchor_set(self):
        x = [[0.3, 0.7]]
        np.testing.assert_array_equal(inject_anchors(x, AnchorSet(())), x)

    def test_all_rows_anchored(self):
        out = inject_anchors(np.full((3, 2), 0.5), AnchorSet(((0, 0), (1, 1), (2, 0))))
        np.testing.assert_array_equal(out, [[1, 0], [0, 1], [1, 0]])

    @given(st.integers(2, 8), st.integers(2, 4), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, n, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.dirichlet(np.ones(m), size=n)
        entries = tuple((i, int(rng.integers(m))) for i in range(0, n, 2))
        anchors = AnchorSet(entries)
        once = inject_anchors(x, anchors)
        np.testing.assert_array_equal(inject_anchors(once, anchors), once)


def test_prior_config_validation():
    with pytest.raises(ConfigError):
        PriorConfig(mode="oracle")
    with pytest.raises(ConfigError):
        PriorConfig(temperature=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            PriorConfig(temperature=bad)
