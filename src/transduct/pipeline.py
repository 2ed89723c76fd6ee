"""End-to-end label generation over CSV files.

Flow: ingest features and labels, build the similarity graph, set up the
initial assignment (priors plus anchors), run the chosen propagator,
decode pseudo-labels, score them against held-out truth and write a
predictions CSV plus a JSON report. Runs are deterministic given
(config, seed): reruns produce byte-identical outputs.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .baselines import (
    BaselineConfig,
    harmonic_function,
    kmeans,
    label_propagation,
    label_spreading,
)
from .core import UNLABELED, AnchorSet, EvaluationReport, FeatureSet, LabelSet, argmax_decode
from .dynamics import DynamicsConfig, group_loss_value, run_dynamics
from .errors import ConfigError, DataError, UnknownId
from .io import (
    read_features_csv,
    read_label_pairs,
    read_logits_csv,
    write_predictions_csv,
    write_report_json,
)
from .priors import PriorConfig, apply_class_mask, inject_anchors, softmax_with_temperature, uniform_prior
# sparsify_knn is not called here (knn_graph replaced it on the run path);
# it stays importable from this module because perfbench/tracer.py wraps it
# under this name.
from .similarity import handle_negatives, knn_graph, pearson_matrix, sparsify_knn  # noqa: F401

METHODS = ("gtg", "group_loss", "label_spreading", "label_propagation", "harmonic")

RUN_METRICS = ("accuracy", "macro_f1", "nmi", "cross_entropy")
EVAL_METRICS = ("accuracy", "macro_f1", "nmi")

#: Fixed-step default for the group_loss method when none is configured.
GROUP_LOSS_DEFAULT_STEPS = 3

#: Report note for 2-d features: a centred 2-d sample (a, b) is
#: ((a - b) / 2) * (1, -1), so every pairwise correlation is exactly +-1.
PEARSON_2D_NOTE = (
    "Pearson similarity of 2-d features is always +-1; "
    "the graph only splits samples by sign(f0 - f1)"
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs; validated on construction."""

    method: str
    features_path: str
    labels_path: str | None = None
    truth_path: str | None = None
    anchors_path: str | None = None
    logits_path: str | None = None
    anchor_fraction: float | None = None
    negative_handling: str = "clamp"
    knn: int | None = None
    prior: PriorConfig = field(default_factory=PriorConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    seed: int = 0
    metrics: tuple[str, ...] = ("accuracy", "macro_f1")
    out_dir: str = "."

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        has_fraction = self.anchor_fraction is not None
        has_file = self.anchors_path is not None
        if has_fraction == has_file:
            raise ConfigError("exactly one anchor source required: --anchor-fraction or --anchors-file")
        if has_fraction and not 0 < self.anchor_fraction <= 1:
            raise ConfigError("anchor_fraction must lie in (0, 1]")
        if self.negative_handling not in ("clamp", "shift"):
            raise ConfigError("negative_handling must be 'clamp' or 'shift'")
        if self.knn is not None and self.knn < 1:
            raise ConfigError("knn must be >= 1")
        for name in self.metrics:
            _parse_metric(name, RUN_METRICS)
        if self.prior.mode == "logits" and self.logits_path is None:
            raise ConfigError("prior mode 'logits' requires a logits file")


def _parse_metric(name: str, allowed) -> tuple[str, int | None]:
    if name.startswith("recall@"):
        try:
            k = int(name.split("@", 1)[1])
        except ValueError:
            raise ConfigError(f"bad metric name {name!r}") from None
        if k < 1:
            raise ConfigError(f"bad metric name {name!r}")
        return "recall", k
    if name in allowed:
        return name, None
    raise ConfigError(f"unknown metric {name!r}")


class _ClassIndexer:
    """Assigns class indices by first appearance of each label string."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}

    def index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]


def _pairs_to_vector(pairs, id_to_row, n, indexer, path) -> np.ndarray:
    vector = np.full(n, UNLABELED, dtype=np.int64)
    for sample_id, name in pairs:
        if sample_id not in id_to_row:
            raise UnknownId(f"{path}: id {sample_id!r} does not appear in the feature file")
        if name is not None:
            vector[id_to_row[sample_id]] = indexer.index(name)
    return vector


def ingest(features_path, labels_path) -> tuple[FeatureSet, LabelSet, tuple[str, ...]]:
    """Load a feature CSV and a label CSV joined by exact id match.

    Label strings become class indices in first-appearance order; the
    returned tuple of names maps indices back to strings. Feature rows
    missing from the label file are unlabeled.
    """
    features = read_features_csv(features_path)
    id_to_row = {sid: i for i, sid in enumerate(features.ids)}
    indexer = _ClassIndexer()
    vector = _pairs_to_vector(read_label_pairs(labels_path), id_to_row, features.n, indexer, labels_path)
    labels = LabelSet(num_classes=max(1, len(indexer.names)), labels=vector)
    return features, labels, tuple(indexer.names)


def _stratified_anchors(labels: np.ndarray, num_classes: int, fraction: float, seed: int) -> AnchorSet:
    """Seeded per-class sampling of labeled rows, at least one per class
    where available."""
    labeled = np.flatnonzero(labels != UNLABELED)
    if labeled.size == 0:
        raise ConfigError("anchor fraction mode needs labeled rows to sample from")
    if fraction * labeled.size < 1:
        raise ConfigError("anchor_fraction times the labeled count must be at least 1")
    rng = np.random.default_rng(seed)
    entries = []
    for c in range(num_classes):
        pool = np.flatnonzero(labels == c)
        if pool.size == 0:
            continue
        count = min(pool.size, max(1, int(np.floor(fraction * pool.size + 0.5))))
        picked = rng.choice(pool, size=count, replace=False)
        entries.extend((int(i), c) for i in picked)
    entries.sort()
    return AnchorSet(tuple(entries))


def _build_similarity(features: FeatureSet, cfg: RunConfig):
    """Dense Pearson graph, or with --knn the same graph's k-NN form in CSR,
    built without the dense matrix."""
    if cfg.knn is not None:
        w, zero_variance = knn_graph(features, min(cfg.knn, features.n - 1), cfg.negative_handling)
    else:
        w, zero_variance = pearson_matrix(features)
        w = handle_negatives(w, cfg.negative_handling)
    return w, [int(i) for i in zero_variance]


def _initial_assignment(features, m, cfg: RunConfig, anchors: AnchorSet, id_to_row):
    if cfg.prior.mode == "logits":
        ids, logit_rows = read_logits_csv(cfg.logits_path)
        if logit_rows.shape[1] != m:
            raise DataError(
                f"logits have {logit_rows.shape[1]} columns for {m} classes"
            )
        x0 = np.zeros((features.n, m))
        seen = np.zeros(features.n, dtype=bool)
        for sid, row in zip(ids, logit_rows):
            if sid not in id_to_row:
                raise UnknownId(f"{cfg.logits_path}: id {sid!r} does not appear in the feature file")
            x0[id_to_row[sid]] = row
            seen[id_to_row[sid]] = True
        if not seen.all():
            raise DataError("logits file must cover every sample")
        x0 = softmax_with_temperature(x0, cfg.prior.temperature)
    else:
        x0 = uniform_prior(features.n, m)
    if cfg.prior.class_mask is not None:
        x0 = apply_class_mask(x0, cfg.prior.class_mask)
        allowed = {i: set(classes) for i, classes in enumerate(cfg.prior.class_mask)}
        for i, c in anchors.entries:
            if c not in allowed.get(i, {c}):
                raise ConfigError(f"anchor {i} has class {c} excluded by its class mask")
    return inject_anchors(x0, anchors)


def _cap_note(method: str, cap: int, tolerance: float) -> str:
    return f"{method} stopped at its {cap}-step iteration cap without converging (tolerance {tolerance!r})"


def _propagate(w, x0, anchors: AnchorSet, labels_for_baselines: LabelSet, cfg: RunConfig):
    """Dispatch on method; returns (assignment, info dict with stable keys).

    ``info["notes"]`` holds a line when an iterative method stopped at its
    step cap without converging (fixed-step runs stop there by design)."""
    info = {
        "iterations_used": 0,
        "converged": True,
        "functional_trace": [],
        "degenerate_rows": [],
        "isolated_rows": [],
        "notes": [],
    }
    if cfg.method in ("gtg", "group_loss"):
        dyn = cfg.dynamics
        if cfg.method == "group_loss" and dyn.fixed_iterations is None:
            dyn = replace(dyn, fixed_iterations=GROUP_LOSS_DEFAULT_STEPS)
        x, trace = run_dynamics(w, x0, dyn, anchors)
        info["iterations_used"] = trace.iterations_used
        info["converged"] = trace.converged
        info["functional_trace"] = trace.functional_values
        info["degenerate_rows"] = list(trace.degenerate_rows)
        if dyn.fixed_iterations is None and not trace.converged:
            info["notes"].append(_cap_note(cfg.method, dyn.max_iterations, dyn.tolerance))
        return x, info
    if cfg.method == "harmonic":
        return harmonic_function(w, labels_for_baselines), info
    if cfg.method == "label_spreading":
        x, meta = label_spreading(w, labels_for_baselines, cfg.baseline.alpha, cfg.baseline)
        info["isolated_rows"] = meta["isolated"]
    else:
        x, meta = label_propagation(w, labels_for_baselines, cfg.baseline)
    info.update(iterations_used=meta["iterations"], converged=meta["converged"])
    if not meta["converged"]:
        info["notes"].append(_cap_note(cfg.method, cfg.baseline.max_iterations, cfg.baseline.tolerance))
    return x, info


def _score(cfg, features, truth, pred, assignment, anchors, m) -> tuple[dict, list[str]]:
    """Requested metrics on held-out labeled rows (truth minus anchors);
    recall@K runs over all truth-labeled rows since it scores the
    embedding space, not the predictions."""
    notes: list[str] = []
    values: dict[str, float] = {}
    if truth is None:
        if cfg.metrics:
            notes.append("metrics skipped: no truth file supplied")
        return values, notes
    truth_rows = np.flatnonzero(truth != UNLABELED)
    held_out = np.setdiff1d(truth_rows, anchors.indices())
    requested = list(cfg.metrics)
    if cfg.method == "group_loss" and "cross_entropy" not in requested:
        requested.append("cross_entropy")
    recall = _recall(features.data[truth_rows], truth[truth_rows], requested, RUN_METRICS)
    for name in requested:
        kind, k = _parse_metric(name, RUN_METRICS)
        if kind == "recall":
            values[name] = recall[k]
            continue
        if held_out.size == 0:
            notes.append(f"metric {name} skipped: no held-out labeled rows")
            continue
        if kind == "accuracy":
            values[name] = metrics_mod.accuracy(pred[held_out], truth[held_out])
        elif kind == "macro_f1":
            values[name] = metrics_mod.macro_f1(pred[held_out], truth[held_out], m)
        elif kind == "nmi":
            values[name] = metrics_mod.nmi(pred[held_out], truth[held_out])
        elif kind == "cross_entropy":
            masked = np.full_like(truth, UNLABELED)
            masked[held_out] = truth[held_out]
            values[name] = group_loss_value(assignment, masked)
    return values, notes


def _recall(data, truth, names, allowed) -> dict[int, float]:
    """recall@K for every K among ``names``, from one neighbor search."""
    ks = sorted({k for kind, k in (_parse_metric(name, allowed) for name in names) if kind == "recall"})
    return metrics_mod.recall_at_k(data, truth, ks) if ks else {}


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)
    echo["metrics"] = list(cfg.metrics)
    if cfg.prior.class_mask is not None:
        echo["prior"]["class_mask"] = [sorted(int(c) for c in s) for s in cfg.prior.class_mask]
    return echo


def run_pipeline(cfg: RunConfig) -> tuple[Path, dict]:
    """Execute a full run; writes predictions.csv and report.json into
    cfg.out_dir and returns (predictions path, report dict)."""
    features = read_features_csv(cfg.features_path)
    id_to_row = {sid: i for i, sid in enumerate(features.ids)}
    indexer = _ClassIndexer()

    labels = np.full(features.n, UNLABELED, dtype=np.int64)
    if cfg.labels_path is not None:
        labels = _pairs_to_vector(
            read_label_pairs(cfg.labels_path), id_to_row, features.n, indexer, cfg.labels_path
        )

    anchor_entries = None
    if cfg.anchors_path is not None:
        pairs = read_label_pairs(cfg.anchors_path)
        blank = [sid for sid, name in pairs if name is None]
        if blank:
            raise DataError(f"{cfg.anchors_path}: anchor rows must carry a label (id {blank[0]!r})")
        vector = _pairs_to_vector(pairs, id_to_row, features.n, indexer, cfg.anchors_path)
        anchor_entries = AnchorSet(
            tuple(sorted((int(i), int(vector[i])) for i in np.flatnonzero(vector != UNLABELED)))
        )

    truth = None
    if cfg.truth_path is not None:
        truth = _pairs_to_vector(
            read_label_pairs(cfg.truth_path), id_to_row, features.n, indexer, cfg.truth_path
        )

    m = len(indexer.names)
    if m < 2:
        raise ConfigError(f"need at least two distinct classes, found {m}")

    anchors = anchor_entries if anchor_entries is not None else _stratified_anchors(
        labels, m, cfg.anchor_fraction, cfg.seed
    )
    if len(anchors) == 0:
        raise ConfigError("anchor set is empty")

    w, zero_variance = _build_similarity(features, cfg)
    x0 = _initial_assignment(features, m, cfg, anchors, id_to_row)

    baseline_labels = np.full(features.n, UNLABELED, dtype=np.int64)
    baseline_labels[anchors.indices()] = anchors.classes()
    assignment, info = _propagate(w, x0, anchors, LabelSet(m, baseline_labels), cfg)

    pred = argmax_decode(assignment)
    predicted_names = [indexer.names[c] for c in pred]

    metric_values, notes = _score(cfg, features, truth, pred, assignment, anchors, m)
    notes += info["notes"]
    if features.dim == 2:
        notes.append(PEARSON_2D_NOTE)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    predictions_path = out_dir / "predictions.csv"
    write_predictions_csv(predictions_path, features.ids, predicted_names, assignment)

    report = EvaluationReport(
        metrics=metric_values,
        config_echo=_config_echo(cfg),
        iterations_used=info["iterations_used"],
        converged=info["converged"],
        extra={
            "num_samples": features.n,
            "num_classes": m,
            "classes": list(indexer.names),
            "num_anchors": len(anchors),
            "functional_trace": info["functional_trace"],
            "warnings": {
                "zero_variance_samples": zero_variance,
                "degenerate_rows": info["degenerate_rows"],
                "isolated_rows": info["isolated_rows"],
                "notes": notes,
            },
        },
    ).to_dict()
    write_report_json(out_dir / "report.json", report)
    return predictions_path, report


def run_eval(
    features_path,
    truth_path,
    labels_path=None,
    metric_names: tuple[str, ...] = ("recall@1", "recall@2", "recall@4", "recall@8", "nmi"),
    seed: int = 0,
    out_dir: str = ".",
) -> tuple[Path, dict]:
    """Score an embedding file against truth labels.

    recall@K queries the feature space directly; nmi clusters the
    features with K-means (one cluster per truth class) and compares the
    partition to truth; accuracy and macro_f1 require a predictions file
    via ``labels_path``.
    """
    for name in metric_names:
        _parse_metric(name, EVAL_METRICS)
    features = read_features_csv(features_path)
    id_to_row = {sid: i for i, sid in enumerate(features.ids)}
    indexer = _ClassIndexer()
    truth = _pairs_to_vector(read_label_pairs(truth_path), id_to_row, features.n, indexer, truth_path)
    pred = None
    if labels_path is not None:
        pred = _pairs_to_vector(read_label_pairs(labels_path), id_to_row, features.n, indexer, labels_path)
    rows = np.flatnonzero(truth != UNLABELED)
    if rows.size == 0:
        raise DataError(f"{truth_path}: no labeled rows to evaluate")
    m = len(indexer.names)

    notes: list[str] = []
    values: dict[str, float] = {}
    recall = _recall(features.data[rows], truth[rows], metric_names, EVAL_METRICS)
    for name in metric_names:
        kind, k = _parse_metric(name, EVAL_METRICS)
        if kind == "recall":
            values[name] = recall[k]
        elif kind == "nmi":
            clusters = kmeans(features.data[rows], m, BaselineConfig(seed=seed))
            values[name] = metrics_mod.nmi(clusters, truth[rows])
        elif pred is None:
            notes.append(f"metric {name} skipped: needs a predictions file (--labels)")
        else:
            both = rows[pred[rows] != UNLABELED]
            if kind == "accuracy":
                values[name] = metrics_mod.accuracy(pred[both], truth[both])
            else:
                values[name] = metrics_mod.macro_f1(pred[both], truth[both], m)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = EvaluationReport(
        metrics=values,
        config_echo={
            "method": "eval",
            "features_path": str(features_path),
            "truth_path": str(truth_path),
            "labels_path": None if labels_path is None else str(labels_path),
            "metrics": list(metric_names),
            "seed": seed,
            "out_dir": str(out_dir),
        },
        iterations_used=0,
        converged=True,
        extra={
            "num_samples": int(rows.size),
            "num_classes": m,
            "classes": list(indexer.names),
            "num_anchors": 0,
            "functional_trace": [],
            "warnings": {
                "zero_variance_samples": [],
                "degenerate_rows": [],
                "isolated_rows": [],
                "notes": notes,
            },
        },
    ).to_dict()
    report_path = out_dir / "report.json"
    write_report_json(report_path, report)
    return report_path, report
