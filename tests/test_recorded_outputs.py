"""Every method's labels and iteration counts on one fixed dataset, pinned
so that a refactor which changes what a propagator computes shows up.

The data is 4 blobs of 60 samples, d=16, sigma 2.5, seed 3, with 5%
stratified anchors. Each run is pinned by a digest of its predicted labels
plus its iteration count and convergence flag. The probabilities are not
pinned: a different BLAS thread count can change their last bits, while
the labels and counts stay put (checked at 1 and 2 threads).
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


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("recorded")
    features, labels = make_synthetic(BlobSpec(blobs=4, per_blob=60, dim=16, stddev=2.5), seed=3)
    write_features_csv(root / "features.csv", features)
    write_labels_csv(root / "labels.csv", features.ids, [f"blob{c}" for c in labels.labels])
    return root


def label_digest(predictions_path) -> str:
    with open(predictions_path, newline="") as fh:
        labels = [row["predicted_label"] for row in csv.DictReader(fh)]
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()[:16]


@pytest.mark.parametrize("mode", ["clamp", "shift"])
@pytest.mark.parametrize("knn", [None, 10])
@pytest.mark.parametrize("method", METHODS)
def test_labels_and_iterations_match_the_record(dataset, tmp_path, method, knn, mode):
    cfg = RunConfig(
        method=method,
        features_path=str(dataset / "features.csv"),
        labels_path=str(dataset / "labels.csv"),
        anchor_fraction=0.05,
        knn=knn,
        negative_handling=mode,
        out_dir=str(tmp_path),
    )
    predictions_path, report = run_pipeline(cfg)
    observed = (label_digest(predictions_path), report["iterations_used"], report["converged"])
    assert observed == RECORDED[method, knn, mode]
