"""Every library call returns or raises a TransductError, never numpy's.

Each callable in ``transduct.__all__`` that takes arrays or integers is
called with arguments drawn from everything an array can be (None, a
ragged nested list, or any ndim 0-3, dtype bool, int, float, str or
object and small shape, with or without NaN and inf), everything an
integer can be (ints, floats, None, strings) and, for the keyword
settings, everything a setting can be (``SETTINGS``). The tests run with
warnings as errors, so a numpy warning fails too.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import transduct as td
from transduct.errors import TransductError

ELEMENTS = (
    (np.float64, st.floats(-4, 4) | st.sampled_from([np.nan, np.inf])),
    (np.int64, st.integers(-2, 4)),
    (np.bool_, st.booleans()),
    ("U3", st.text("0123.-n", max_size=3)),
    (object, st.none() | st.integers(-2, 4) | st.floats(-4, 4)),
)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
#: Nested lists whose rows may differ in length, which numpy cannot make an array of.
RAGGED = st.lists(st.lists(st.floats(-4, 4), max_size=3), min_size=2, max_size=4)
ARRAYS = st.none() | RAGGED | st.one_of(*(hnp.arrays(dtype, SHAPES, elements=e) for dtype, e in ELEMENTS))
INTEGERS = st.integers(-2, 6) | st.floats(-2, 6) | st.none() | st.text("0123-", max_size=2)


@st.composite
def label_sets(draw):
    m = draw(st.integers(1, 3))
    return td.LabelSet(m, draw(st.lists(st.integers(-1, m - 1), max_size=4)))


LABEL_SETS = label_sets() | ARRAYS
SPEC = st.just(td.BlobSpec(blobs=2, per_blob=3, dim=2))

#: The argument strategies of each callable, in call order.
SIGNATURES = {
    "CsrGraph": (ARRAYS, ARRAYS, ARRAYS),
    "FeatureSet": (ARRAYS, st.lists(st.text("ab", max_size=2), max_size=4)),
    "LabelSet": (INTEGERS, ARRAYS),
    "accuracy": (ARRAYS, ARRAYS),
    "argmax_decode": (ARRAYS,),
    "group_loss_value": (ARRAYS, ARRAYS),
    "handle_negatives": (ARRAYS,),
    "harmonic_function": (ARRAYS, LABEL_SETS),
    "inject_anchors": (ARRAYS, LABEL_SETS),
    "kmeans": (ARRAYS, INTEGERS, INTEGERS),
    "knn_graph": (ARRAYS, INTEGERS),
    "label_propagation": (ARRAYS, LABEL_SETS),
    "label_spreading": (ARRAYS, LABEL_SETS),
    "macro_f1": (ARRAYS, ARRAYS, INTEGERS),
    "make_synthetic": (SPEC, INTEGERS),
    "nmi": (ARRAYS, ARRAYS),
    "pearson_matrix": (ARRAYS,),
    "recall_at_k": (ARRAYS, ARRAYS, INTEGERS | st.lists(INTEGERS, max_size=3)),
    "run_dynamics": (ARRAYS, ARRAYS),
    "softmax_with_temperature": (ARRAYS,),
    "sparsify_knn": (ARRAYS, INTEGERS),
    "true_centroids": (SPEC, INTEGERS),
    "uniform_prior": (INTEGERS, INTEGERS),
}
#: What a run setting can be: a number in or out of its range, NaN or
#: inf, None, a bool or a string.
SETTINGS = st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text("0123.-n", max_size=3)
#: The keyword settings of each callable that takes them; each is drawn
#: from SETTINGS or left out.
KEYWORDS = {
    "label_propagation": ("max_iterations", "tolerance"),
    "label_spreading": ("max_iterations", "tolerance", "alpha"),
    "run_dynamics": ("max_iterations", "tolerance"),
    "softmax_with_temperature": ("temperature",),
}
#: Exports that take neither: constants, the error module, records and
#: the file-level entry points, which their own tests cover.
NOT_DRAWN = {"UNLABELED", "errors", "BlobSpec", "DynamicsTrace", "RunConfig", "run_pipeline", "run_eval"}


def test_every_export_is_drawn_or_excluded():
    assert sorted(set(td.__all__) - NOT_DRAWN) == sorted(SIGNATURES)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_arguments_raise_package_errors(name, data):
    args = [data.draw(strategy, label=f"argument {i}") for i, strategy in enumerate(SIGNATURES[name])]
    kwargs = {}
    for key in KEYWORDS.get(name, ()):
        if data.draw(st.booleans(), label=f"pass {key}"):
            kwargs[key] = data.draw(SETTINGS, label=key)
    try:
        getattr(td, name)(*args, **kwargs)
    except TransductError:
        pass


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operand=ARRAYS)
def test_a_malformed_graph_operand_raises_package_errors(operand):
    """``graph @ x`` coerces its operand like every entry point."""
    try:
        td.CsrGraph([0, 1, 2], [1, 0], [1.0, 1.0]) @ operand
    except TransductError:
        pass


W = [[0.0, 1.0], [1.0, 0.0]]
X0 = [[0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize("call, message", [
    (lambda: td.run_dynamics(W, X0, tolerance="1"), "tolerance must be a number, got '1'"),
    (lambda: td.run_dynamics(W, X0, max_iterations=None), "max_iterations must be an integer, got None"),
    (lambda: td.label_spreading(W, td.LabelSet(2, [0, -1]), alpha=None), "alpha must be a number, got None"),
    (lambda: td.softmax_with_temperature(X0, temperature=[1.0]), "temperature must be a number, got [1.0]"),
], ids=["tolerance-str", "max_iterations-None", "alpha-None", "temperature-list"])
def test_a_setting_of_the_wrong_type_is_a_config_error(call, message):
    with pytest.raises(td.errors.ConfigError) as caught:
        call()
    assert str(caught.value) == message
