"""End-to-end label generation over CSV files.

Flow: load features and labels, build the similarity graph, run the
chosen propagator (the dynamics from a prior with the anchors pinned,
the baselines from the anchors alone), decode pseudo-labels, score them
against held-out truth and write a predictions CSV plus a JSON report. Runs are deterministic given
(config, seed): at a fixed ``TRANSDUCT_THREADS`` reruns produce
byte-identical outputs (a different BLAS thread count can change the
last bits of the probabilities).
"""
from __future__ import annotations

import math
import numbers
import os
import re
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .baselines import harmonic_function, kmeans, label_propagation, label_spreading
from .core import UNLABELED, FeatureSet, LabelSet, argmax_decode, check_settings, integer, unreached
from .dynamics import group_loss_value, run_dynamics
from .errors import ConfigError, DataError, NonFinite, UnknownId
from .io import read_features_csv, read_label_pairs, write_predictions_csv, write_report_json
from .priors import inject_anchors, softmax_with_temperature, uniform_prior
# sparsify_knn is not called here (knn_graph replaced it on the run path);
# it stays importable from this module because perfbench/tracer.py wraps it
# under this name.
from .similarity import check_mode, handle_negatives, knn_graph, pearson_matrix, sparsify_knn  # noqa: F401

#: The methods that run replicator dynamics; the others are baselines.
DYNAMICS_METHODS = ("gtg", "group_loss")
METHODS = DYNAMICS_METHODS + ("label_spreading", "label_propagation", "harmonic")

#: The metric names each command accepts, besides recall@K (K a positive
#: integer). accuracy, macro_f1, cross_entropy and ``run``'s nmi score the
#: truth rows that carry a prediction: reached held-out rows in ``run``, the
#: rows ``--labels`` labels in ``eval``. recall@K and ``eval``'s nmi score
#: every truth row. nmi means two things: NMI(predictions, truth) in
#: ``run``, NMI(kmeans(features), truth) in ``eval``.
RUN_METRICS = ("accuracy", "macro_f1", "nmi", "cross_entropy")
EVAL_METRICS = ("accuracy", "macro_f1", "nmi")
#: What ``run_eval`` (and ``transduct eval``) scores when no metrics are named.
EVAL_DEFAULT_METRICS = ("recall@1", "recall@2", "recall@4", "recall@8", "nmi")

#: The run settings each method reads, with the value a run takes when
#: its ``RunConfig`` field is None. The library defaults of
#: ``run_dynamics``, ``label_spreading`` and ``label_propagation`` are the
#: same; ``group_loss`` is the fixed-step refinement (tolerance 0).
METHOD_SETTINGS = {
    "gtg": {"max_iterations": 100, "tolerance": 1e-6},
    "group_loss": {"max_iterations": 3, "tolerance": 0.0},
    "label_spreading": {"alpha": 0.99, "max_iterations": 1000, "tolerance": 1e-8},
    "label_propagation": {"max_iterations": 1000, "tolerance": 1e-8},
    "harmonic": {},
}
#: The softmax temperature of a logits prior, the one setting read only
#: when ``logits_path`` is set.
DEFAULT_TEMPERATURE = 1.0

#: Report note for 2-d features: a centred 2-d sample (a, b) is
#: ((a - b) / 2) * (1, -1), so every pairwise correlation is exactly +-1.
PEARSON_2D_NOTE = (
    "Pearson similarity of 2-d features is always +-1; "
    "the graph only splits samples by sign(f0 - f1)"
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs; validated on construction.

    ``max_iterations``, ``tolerance``, ``alpha`` and ``temperature`` left
    None take the method's default from ``METHOD_SETTINGS`` (temperature:
    ``DEFAULT_TEMPERATURE`` when a logits file is given). Setting one the
    method does not read is a ConfigError; after construction each field
    holds what the run uses, None for the settings it does not read.
    ``max_iterations`` and ``knn`` must be integers >= 1 and ``seed`` one
    >= 0; the other numbers are stored as ``float``, as the CLI parses them.
    The path fields take a ``str`` or an ``os.PathLike`` and are stored as
    ``str``; ``metrics`` takes a sequence of names and is stored as a tuple.
    """

    method: str
    features_path: str
    labels_path: str | None = None
    truth_path: str | None = None
    anchors_path: str | None = None
    logits_path: str | None = None
    anchor_fraction: float | None = None
    negative_handling: str = "clamp"
    knn: int | None = None
    max_iterations: int | None = None
    tolerance: float | None = None
    alpha: float | None = None
    temperature: float | None = None
    seed: int = 0
    metrics: tuple[str, ...] = ("accuracy", "macro_f1")
    out_dir: str = "."

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.logits_path is not None and self.method not in DYNAMICS_METHODS:
            raise ConfigError(f"a logits prior applies only to gtg and group_loss, not to {self.method}")
        for name, low in (("max_iterations", 1), ("knn", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is not None or name == "seed":
                object.__setattr__(self, name, integer(name, value, low))
        reads = dict(METHOD_SETTINGS[self.method])
        if self.logits_path is not None:
            reads["temperature"] = DEFAULT_TEMPERATURE
        for name in ("max_iterations", "tolerance", "alpha", "temperature"):
            if name in reads and getattr(self, name) is None:
                object.__setattr__(self, name, reads[name])
            elif name not in reads and getattr(self, name) is not None:
                prior = name == "temperature" and self.method in DYNAMICS_METHODS
                without = " without a logits prior" if prior else ""
                raise ConfigError(f"{name} does not apply to {self.method}{without}")
        check_settings(**{name: getattr(self, name) for name in reads})
        has_fraction = self.anchor_fraction is not None
        has_file = self.anchors_path is not None
        if has_fraction == has_file:
            raise ConfigError("exactly one anchor source required: --anchor-fraction or --anchors-file")
        if has_fraction and not isinstance(self.anchor_fraction, numbers.Real):
            raise ConfigError(f"anchor_fraction must be a number, got {self.anchor_fraction!r}")
        if has_fraction and not 0 < self.anchor_fraction <= 1:
            raise ConfigError("anchor_fraction must lie in (0, 1]")
        check_mode(self.negative_handling)
        _parse_metrics(self.metrics, RUN_METRICS)
        object.__setattr__(self, "metrics", tuple(self.metrics))
        for name in ("tolerance", "alpha", "temperature", "anchor_fraction"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("features_path", "labels_path", "truth_path", "anchors_path", "logits_path", "out_dir"):
            if getattr(self, name) is not None or name in ("features_path", "out_dir"):
                object.__setattr__(self, name, _path(name, getattr(self, name)))


def _path(name: str, value) -> str:
    """``value`` as a ``str``: ConfigError unless it is a ``str`` or an
    ``os.PathLike`` naming one."""
    path = os.fspath(value) if isinstance(value, (str, os.PathLike)) else None
    if not isinstance(path, str):
        raise ConfigError(f"{name} must be a str or os.PathLike path, got {value!r}")
    return path


def _parse_metrics(names, allowed) -> list[tuple[str, str, int | None]]:
    """(name, kind, K) per name: (name, "recall", K) for recall@K, K in plain
    digits with no leading zero, so each K has one name; (name, name, None)
    otherwise. ``names`` other than a sequence of strings, or a name given
    twice, is a ConfigError."""
    if isinstance(names, str) or not isinstance(names, Sequence) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"metrics must be a sequence of metric names, got {names!r}")
    parsed = []
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"metric {name!r} is named twice")
        match = re.fullmatch(r"recall@([1-9][0-9]*)", name)
        if match is not None:
            parsed.append((name, "recall", int(match[1])))
        elif name.startswith("recall@"):
            raise ConfigError(f"bad metric name {name!r}")
        elif name not in allowed:
            raise ConfigError(f"unknown metric {name!r}")
        else:
            parsed.append((name, name, None))
    return parsed


def _load_inputs(features_path, labels_path=None, anchors_path=None, truth_path=None, logits_path=None):
    """Read the feature file and the label and logits files joined to it
    by exact id.

    Returns (features, labels, anchors, truth, classes, m, logits); the
    three label vectors hold one class index or UNLABELED per feature row,
    and ``logits`` is an n x m matrix in feature-row order. Label
    strings become class indices in first-appearance order over the
    labels and then the anchors; those first m classes are the model's.
    Classes that appear only in the truth file are indexed after them, so
    truth never changes what the model sees. Feature rows missing from a
    label file are unlabeled; ``anchors`` and ``truth`` are None without
    their file, and so is ``logits``.
    """
    features = read_features_csv(features_path)
    id_to_row = {sid: i for i, sid in enumerate(features.ids)}
    index: dict[str, int] = {}

    def row_of(path, sample_id) -> int:
        if sample_id not in id_to_row:
            raise UnknownId(f"{path}: id {sample_id!r} does not appear in the feature file")
        return id_to_row[sample_id]

    def to_vector(path, blank_ok=True) -> np.ndarray:
        vector = np.full(features.n, UNLABELED, dtype=np.int64)
        for sample_id, name in read_label_pairs(path) if path is not None else ():
            row = row_of(path, sample_id)
            if name is not None:
                vector[row] = index.setdefault(name, len(index))
            elif not blank_ok:
                raise DataError(f"{path}: anchor rows must carry a label (id {sample_id!r})")
        return vector

    labels = to_vector(labels_path)
    anchors = to_vector(anchors_path, blank_ok=False) if anchors_path is not None else None
    m = len(index)
    truth = to_vector(truth_path) if truth_path is not None else None
    logits = None
    if logits_path is not None:
        table = read_features_csv(logits_path)
        if table.dim != m:
            raise DataError(f"logits have {table.dim} columns for {m} classes")
        # the reader rejects NaN values, so a NaN left here is a missing row
        logits = np.full((features.n, m), np.nan)
        logits[[row_of(logits_path, sid) for sid in table.ids]] = table.data
        if np.isnan(logits).any():
            raise DataError("logits file must cover every sample")
    return features, labels, anchors, truth, tuple(index), m, logits


def _stratified_anchors(labels: np.ndarray, num_classes: int, fraction: float, seed: int) -> np.ndarray:
    """Seeded per-class sampling of labeled rows, at least one per class
    where available; returns the anchor vector (UNLABELED off the picks)."""
    labeled = np.flatnonzero(labels != UNLABELED)
    if fraction * labeled.size < 1:
        raise ConfigError("anchor_fraction times the labeled count must be at least 1")
    rng = np.random.default_rng(seed)
    anchors = np.full(labels.shape[0], UNLABELED, dtype=np.int64)
    for c in range(num_classes):
        pool = np.flatnonzero(labels == c)
        if pool.size == 0:
            continue
        count = min(pool.size, max(1, int(np.floor(fraction * pool.size + 0.5))))
        anchors[rng.choice(pool, size=count, replace=False)] = c
    return anchors


def _build_similarity(features: FeatureSet, cfg: RunConfig):
    """Dense Pearson graph, or with --knn the same graph's k-NN form in CSR,
    built without the dense matrix."""
    if cfg.knn is not None:
        w, zero_variance = knn_graph(features, min(cfg.knn, features.n - 1), cfg.negative_handling)
    else:
        try:
            w, zero_variance = pearson_matrix(features)
            w = handle_negatives(w, cfg.negative_handling)
        except MemoryError:
            raise ConfigError(f"the dense graph of {features.n} samples needs 8*n^2 bytes = "
                              f"{8 * features.n ** 2 / 2**30:.3g} GiB, more than could be allocated; "
                              "use --knn for a sparse graph") from None
    return w, [int(i) for i in zero_variance]


def _propagate(w, anchors: LabelSet, logits, cfg: RunConfig):
    """Dispatch on method; returns (assignment, facts). ``facts`` holds the
    ``_report`` keywords the method ran: ``iterations_used`` and
    ``converged`` for the iterative methods, and ``functional_trace`` and
    ``degenerate_rows`` too for the dynamics. ``harmonic`` iterates
    nothing and has none."""
    if cfg.method == "harmonic":
        return harmonic_function(w, anchors), {}
    loop = {"max_iterations": cfg.max_iterations, "tolerance": cfg.tolerance}
    if cfg.method in DYNAMICS_METHODS:
        n, m = anchors.labels.size, anchors.num_classes
        x0 = uniform_prior(n, m) if logits is None else softmax_with_temperature(logits, cfg.temperature)
        # rebinding frees the raw prior
        x0 = inject_anchors(x0, anchors)
        x, trace = run_dynamics(w, x0, **loop)
        return x, {"iterations_used": trace.iterations_used, "converged": trace.converged,
                   "functional_trace": trace.functional_values, "degenerate_rows": trace.degenerate_rows}
    if cfg.method == "label_spreading":
        x, meta = label_spreading(w, anchors, alpha=cfg.alpha, **loop)
    else:
        x, meta = label_propagation(w, anchors, **loop)
    return x, {"iterations_used": meta["iterations"], "converged": meta["converged"]}


def _score(names, allowed, data, truth, pred, num_classes, skipped, seed=0, assignment=None) -> tuple[dict, list[str]]:
    """The metrics ``names``, on the rows the comment above ``RUN_METRICS``
    states, and a note for each one skipped for the reason ``skipped``.

    ``pred`` is UNLABELED on each row without a prediction. ``num_classes``
    counts the truth-only classes too: the model gives them probability 0.
    ``assignment`` is a run's n x m matrix; without one (``eval``) nmi
    clusters ``data`` with ``kmeans(..., seed)``, one cluster per truth class.
    """
    parsed = _parse_metrics(names, allowed)
    rows = np.flatnonzero(truth != UNLABELED)
    scored = rows[pred[rows] != UNLABELED]
    ks = sorted({k for _, kind, k in parsed if kind == "recall"})
    subset = data if rows.size == len(data) else data[rows]  # no n x d copy when every row is a truth row
    recall = metrics_mod.recall_at_k(subset, truth[rows], ks) if ks else {}
    notes: list[str] = []
    values: dict[str, float] = {}
    for name, kind, k in parsed:
        if kind == "recall":
            values[name] = recall[k]
        elif kind == "nmi" and assignment is None:
            clusters = kmeans(subset, np.unique(truth[rows]).size, seed)
            values[name] = metrics_mod.nmi(clusters, truth[rows])
        elif scored.size == 0:
            notes.append(f"metric {name} skipped: {skipped}")
        elif kind == "accuracy":
            values[name] = metrics_mod.accuracy(pred[scored], truth[scored])
        elif kind == "macro_f1":
            values[name] = metrics_mod.macro_f1(pred[scored], truth[scored], num_classes)
        elif kind == "nmi":
            values[name] = metrics_mod.nmi(pred[scored], truth[scored])
        else:
            padded = np.pad(assignment, ((0, 0), (0, num_classes - assignment.shape[1])))
            values[name] = group_loss_value(padded, np.where(pred == UNLABELED, UNLABELED, truth))
    return values, notes


def _report(
    metrics, config, classes, num_samples, notes, num_anchors=0, zero_variance=(), orphans=(), *,
    iterations_used=0, converged=True, functional_trace=(), degenerate_rows=(),
) -> dict:
    """The report.json payload of a run or an eval; the keywords are the
    facts ``_propagate`` returns, and their defaults those of a run that
    iterates nothing. Raises NonFinite for a non-finite metric."""
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise NonFinite(f"metric {name!r} is not finite: {value!r}")
    return {
        "metrics": metrics,
        "config": config,
        "iterations_used": iterations_used,
        "converged": converged,
        "num_samples": num_samples,
        "num_classes": len(classes),
        "classes": list(classes),
        "num_anchors": num_anchors,
        "functional_trace": list(functional_trace),
        "warnings": {
            "zero_variance_samples": list(zero_variance),
            "degenerate_rows": list(degenerate_rows),
            "unreached_rows": [int(i) for i in orphans],
            "notes": notes,
        },
    }


def run_pipeline(cfg: RunConfig) -> tuple[Path, dict]:
    """Execute a full run; writes predictions.csv and report.json into
    cfg.out_dir and returns (predictions path, report dict)."""
    features, labels, anchor_vector, truth, classes, m, logits = _load_inputs(
        cfg.features_path, cfg.labels_path, cfg.anchors_path, cfg.truth_path, cfg.logits_path
    )
    if m < 2:
        raise ConfigError(f"need at least two distinct classes, found {m}")
    if anchor_vector is None:
        anchor_vector = _stratified_anchors(labels, m, cfg.anchor_fraction, cfg.seed)
    anchors = LabelSet(m, anchor_vector)
    num_anchors = int(np.count_nonzero(anchors.labeled_mask()))
    if num_anchors == 0:
        raise ConfigError("anchor set is empty")

    w, zero_variance = _build_similarity(features, cfg)
    orphans = unreached(w, anchors)
    assignment, facts = _propagate(w, anchors, logits, cfg)
    assignment[orphans] = 1.0 / m

    pred = argmax_decode(assignment)
    pred[orphans] = UNLABELED
    if truth is None:
        metric_values, notes = {}, ["metrics skipped: no truth file supplied"] if cfg.metrics else []
    else:
        names = cfg.metrics
        if cfg.method == "group_loss" and "cross_entropy" not in names:
            names += ("cross_entropy",)
        held_out = np.where(anchors.labeled_mask(), UNLABELED, pred)
        skipped = "no held-out labeled rows"
        if np.any((truth != UNLABELED) & ~anchors.labeled_mask()):
            skipped = "every held-out labeled row is unreached"
        metric_values, notes = _score(
            names, RUN_METRICS, features.data, truth, held_out, len(classes), skipped, assignment=assignment
        )
    # harmonic reads no tolerance, and a tolerance-0 run stops at its cap by design
    if cfg.tolerance and not facts["converged"]:
        cap = f"{cfg.max_iterations}-step iteration cap"
        notes.append(f"{cfg.method} stopped at its {cap} without converging (tolerance {cfg.tolerance!r})")
    if orphans.size:
        notes.append(f"samples with no graph path to an anchor: {orphans.size} (uniform rows, no predicted label)")
    if len(classes) > m:
        notes.append(f"classes only in the truth file are never predicted: {', '.join(classes[m:])}")
    if features.dim == 2:
        notes.append(PEARSON_2D_NOTE)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    predictions_path = out_dir / "predictions.csv"
    predicted = ["" if c == UNLABELED else classes[c] for c in pred]
    write_predictions_csv(predictions_path, features.ids, predicted, assignment)

    config = asdict(cfg) | {"metrics": list(cfg.metrics)}
    report = _report(metric_values, config, classes[:m], features.n, notes, num_anchors, zero_variance, orphans, **facts)
    write_report_json(out_dir / "report.json", report)
    return predictions_path, report


def run_eval(
    features_path,
    truth_path,
    labels_path=None,
    metric_names: tuple[str, ...] = EVAL_DEFAULT_METRICS,
    seed: int = 0,
    out_dir: str = ".",
) -> tuple[Path, dict]:
    """Score an embedding file against truth labels; writes report.json
    into ``out_dir`` and returns (report path, report dict).

    recall@K and nmi score the embedding itself (nmi clusters it with
    K-means); accuracy and macro_f1 score the predictions file
    ``labels_path`` and get a skip note without one, or when it labels
    no truth row. The comment above ``RUN_METRICS`` states the rows.
    """
    seed = integer("seed", seed, low=0)
    _parse_metrics(metric_names, EVAL_METRICS)
    features_path, truth_path = _path("features_path", features_path), _path("truth_path", truth_path)
    labels_path = None if labels_path is None else _path("labels_path", labels_path)
    out_dir = _path("out_dir", out_dir)
    features, pred, _, truth, classes, *_ = _load_inputs(features_path, labels_path, truth_path=truth_path)
    rows = np.flatnonzero(truth != UNLABELED)
    if rows.size == 0:
        raise DataError(f"{truth_path}: no labeled rows to evaluate")
    skipped = "needs a predictions file (--labels)"
    if labels_path is not None:
        skipped = "no row is labeled in both --labels and --truth"
    values, notes = _score(metric_names, EVAL_METRICS, features.data, truth, pred, len(classes), skipped, seed)

    Path(out_dir).mkdir(parents=True, exist_ok=True)
    config = {
        "method": "eval",
        "features_path": features_path,
        "truth_path": truth_path,
        "labels_path": labels_path,
        "metrics": list(metric_names),
        "seed": seed,
        "out_dir": out_dir,
    }
    report = _report(values, config, classes, int(rows.size), notes)
    report_path = Path(out_dir) / "report.json"
    write_report_json(report_path, report)
    return report_path, report
