"""Spans around calls into transduct's layers, recorded from outside the package.

Each wrapped function records a span ``[name, start, end, parent]`` in
memory (``parent`` is the index of the enclosing span, or -1). Wrapping
replaces the attribute the calling module looks up -- for example
``transduct.pipeline.pearson_matrix``, not ``transduct.similarity``'s own
name -- so the package itself is not edited. Counters (bytes, iterations,
nnz, computed flops) are gathered by hooks that run after a span closes,
inside a ``trace.counters`` span of their own, so the time they take shows
as tracing cost instead of inflating the caller's self time.

Times come from ``time.perf_counter``, which on Linux is CLOCK_MONOTONIC
and therefore comparable between a parent process and its children.
"""
from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np


def _nnz(w) -> int:
    return int(w.nnz) if hasattr(w, "nnz") else int(np.count_nonzero(w))


def _stored(w) -> int:
    """Entries a matrix-product kernel touches: nnz for sparse, n*n for dense."""
    return int(w.nnz) if hasattr(w, "nnz") else int(np.size(w))


def _dense_bytes(a) -> int:
    """8 * n * n for an n x n float64 array, 0 for anything else."""
    if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == a.shape[1]:
        return 8 * a.shape[0] * a.shape[0]
    return 0


def _bytes_read(counts, args, result):
    counts["io.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(counts, args, result):
    counts["io.bytes_written"] += os.path.getsize(args[0])


def _pearson(counts, args, result):
    counts["similarity.dense_bytes"] += _dense_bytes(result[0])


def _similarity(counts, args, result):
    counts["similarity.dense_bytes"] += _dense_bytes(result)


def _dynamics(counts, args, result):
    w, x0 = args[0], args[1]
    iterations = result[1].iterations_used
    counts["dynamics.iterations"] += iterations
    counts["similarity.graph_nnz"] += _nnz(w)
    # one W @ X per step plus the final consistency-functional product
    counts["dynamics.matvec_flops"] += 2 * _stored(w) * np.shape(x0)[1] * (iterations + 1)


def _spreading(counts, args, result):
    counts["baselines.label_spreading.iterations"] += result[1]["iterations"]
    counts["similarity.graph_nnz"] += _nnz(args[0])


def _propagation(counts, args, result):
    counts["baselines.label_propagation.iterations"] += result[1]["iterations"]
    counts["baselines.label_propagation.calls"] += 1
    counts["baselines.label_propagation.converged"] += bool(result[1]["converged"])
    counts["similarity.graph_nnz"] += _nnz(args[0])


def _harmonic(counts, args, result):
    counts["similarity.graph_nnz"] += _nnz(args[0])


# (module the caller looks the name up in, attribute, span name, counter hook)
LAYER_TARGETS = (
    ("transduct.pipeline", "read_features_csv", "io.read_features_csv", _bytes_read),
    ("transduct.pipeline", "read_label_pairs", "io.read_label_pairs", _bytes_read),
    ("transduct.pipeline", "write_predictions_csv", "io.write_predictions_csv", _bytes_written),
    ("transduct.pipeline", "write_report_json", "io.write_report_json", _bytes_written),
    ("transduct.pipeline", "pearson_matrix", "similarity.pearson_matrix", _pearson),
    ("transduct.pipeline", "handle_negatives", "similarity.handle_negatives", _similarity),
    ("transduct.pipeline", "sparsify_knn", "similarity.sparsify_knn", _similarity),
    ("transduct.pipeline", "uniform_prior", "priors.uniform_prior", None),
    ("transduct.pipeline", "inject_anchors", "priors.inject_anchors", None),
    ("transduct.pipeline", "argmax_decode", "core.argmax_decode", None),
    ("transduct.pipeline", "run_dynamics", "dynamics.run_dynamics", _dynamics),
    ("transduct.pipeline", "group_loss_value", "dynamics.group_loss_value", None),
    ("transduct.pipeline", "label_propagation", "baselines.label_propagation", _propagation),
    ("transduct.pipeline", "label_spreading", "baselines.label_spreading", _spreading),
    ("transduct.pipeline", "harmonic_function", "baselines.harmonic_function", _harmonic),
    ("transduct.pipeline", "kmeans", "baselines.kmeans", None),
    ("transduct.metrics", "recall_at_k", "metrics.recall_at_k", None),
    ("transduct.metrics", "accuracy", "metrics.accuracy", None),
    ("transduct.metrics", "macro_f1", "metrics.macro_f1", None),
    ("transduct.metrics", "nmi", "metrics.nmi", None),
)

#: The CLI reaches the pipeline entry points through its own imported names.
CLI_TARGETS = (
    ("transduct.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("transduct.cli", "run_eval", "pipeline.run_eval", None),
) + LAYER_TARGETS

#: In-process callers reach run_pipeline through the pipeline module itself.
IN_PROCESS_TARGETS = (
    ("transduct.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
) + LAYER_TARGETS


class Tracer:
    """Records spans and counters for every call through the wrapped names."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, hook):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span = self._open("trace.counters")
                try:
                    hook(self.counts, args, result)
                finally:
                    self._close(span)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, hook in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Return and clear the spans and counters recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
