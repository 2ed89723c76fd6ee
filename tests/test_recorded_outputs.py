"""Every method's labels and iteration counts on two fixed datasets, pinned
so that a refactor which changes what a propagator computes shows up.

The data is 4 blobs of 60 samples, d=16, sigma 2.5, seed 3, with 5%
stratified anchors, run dense and with ``knn=10``. A second set of 4 blobs
of 160 samples, otherwise the same, runs dense only: its graph products
have 640·640·4 > 1e6 multiply-adds, above ``core.DENSE_PRODUCT_FLIP``, so
they take the other branch of ``core.graph_product``. Each run is pinned
by a digest of its predicted labels plus its iteration count and
convergence flag. The probabilities are not pinned: a different BLAS
thread count can change their last bits, while the labels and counts stay
put (checked at 1 and 2 threads).
"""
import csv
import hashlib

import pytest

from transduct import BlobSpec, RunConfig, make_synthetic, run_pipeline
from transduct.io import write_features_csv, write_labels_csv

METHODS = ("gtg", "group_loss", "label_spreading", "label_propagation", "harmonic")

# (method, knn, negative handling) -> (label digest, iterations_used, converged)
RECORDED = {
    ("gtg", None, "clamp"): ("2cbd649740a9e4f1", 28, True),
    ("gtg", None, "shift"): ("7f8a015359a5ad8d", 22, True),
    ("gtg", 10, "clamp"): ("1f59d3e999fe7ae4", 9, True),
    ("gtg", 10, "shift"): ("1f59d3e999fe7ae4", 9, True),
    ("group_loss", None, "clamp"): ("1f59d3e999fe7ae4", 3, False),
    ("group_loss", None, "shift"): ("1f59d3e999fe7ae4", 3, False),
    ("group_loss", 10, "clamp"): ("1f59d3e999fe7ae4", 3, False),
    ("group_loss", 10, "shift"): ("1f59d3e999fe7ae4", 3, False),
    ("label_spreading", None, "clamp"): ("9b1be635b96e2b2e", 78, True),
    ("label_spreading", None, "shift"): ("068074d9a6288696", 20, True),
    ("label_spreading", 10, "clamp"): ("1f59d3e999fe7ae4", 43, True),
    ("label_spreading", 10, "shift"): ("1f59d3e999fe7ae4", 43, True),
    ("label_propagation", None, "clamp"): ("318086a89ee1c81a", 368, True),
    ("label_propagation", None, "shift"): ("9eab60ac5d30d3dc", 354, True),
    ("label_propagation", 10, "clamp"): ("1f59d3e999fe7ae4", 493, True),
    ("label_propagation", 10, "shift"): ("1f59d3e999fe7ae4", 493, True),
    ("harmonic", None, "clamp"): ("318086a89ee1c81a", 0, True),
    ("harmonic", None, "shift"): ("9eab60ac5d30d3dc", 0, True),
    ("harmonic", 10, "clamp"): ("1f59d3e999fe7ae4", 0, True),
    ("harmonic", 10, "shift"): ("1f59d3e999fe7ae4", 0, True),
}

# the 640-sample set, dense: (method, negative handling) -> as above
RECORDED_ABOVE_THE_RULE = {
    ("gtg", "clamp"): ("11094580edc9fa0f", 25, True),
    ("gtg", "shift"): ("da42da24a63259e5", 19, True),
    ("group_loss", "clamp"): ("be564381d41c260a", 3, False),
    ("group_loss", "shift"): ("be564381d41c260a", 3, False),
    ("label_spreading", "clamp"): ("16a1db5a62e875ab", 93, True),
    ("label_spreading", "shift"): ("a7a079d98252e1f9", 21, True),
    ("label_propagation", "clamp"): ("2a42a52012e9fe7b", 390, True),
    ("label_propagation", "shift"): ("cbeb9f67bc60a6d5", 372, True),
    ("harmonic", "clamp"): ("2a42a52012e9fe7b", 0, True),
    ("harmonic", "shift"): ("cbeb9f67bc60a6d5", 0, True),
}


def write_dataset(root, per_blob):
    features, labels = make_synthetic(BlobSpec(blobs=4, per_blob=per_blob, dim=16, stddev=2.5), seed=3)
    write_features_csv(root / "features.csv", features)
    write_labels_csv(root / "labels.csv", features.ids, [f"blob{c}" for c in labels.labels])
    return root


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return write_dataset(tmp_path_factory.mktemp("recorded"), 60)


@pytest.fixture(scope="module")
def large_dataset(tmp_path_factory):
    return write_dataset(tmp_path_factory.mktemp("recorded_large"), 160)


def label_digest(predictions_path) -> str:
    with open(predictions_path, newline="") as fh:
        labels = [row["predicted_label"] for row in csv.DictReader(fh)]
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()[:16]


def observed_run(root, out_dir, method, knn, mode):
    """(label digest, iterations_used, converged) of one run on ``root``'s files."""
    cfg = RunConfig(
        method=method,
        features_path=str(root / "features.csv"),
        labels_path=str(root / "labels.csv"),
        anchor_fraction=0.05,
        knn=knn,
        negative_handling=mode,
        out_dir=str(out_dir),
    )
    predictions_path, report = run_pipeline(cfg)
    return label_digest(predictions_path), report["iterations_used"], report["converged"]


@pytest.mark.parametrize("mode", ["clamp", "shift"])
@pytest.mark.parametrize("knn", [None, 10])
@pytest.mark.parametrize("method", METHODS)
def test_labels_and_iterations_match_the_record(dataset, tmp_path, method, knn, mode):
    assert observed_run(dataset, tmp_path, method, knn, mode) == RECORDED[method, knn, mode]


@pytest.mark.parametrize("mode", ["clamp", "shift"])
@pytest.mark.parametrize("method", METHODS)
def test_dense_runs_above_the_product_rule_match_the_record(large_dataset, tmp_path, method, mode):
    assert observed_run(large_dataset, tmp_path, method, None, mode) == RECORDED_ABOVE_THE_RULE[method, mode]
