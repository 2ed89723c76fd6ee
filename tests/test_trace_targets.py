"""The benchmark's tracer must find every name it wraps.

``perfbench/tracer.py`` wraps transduct functions by replacing the
attribute the calling module looks up (``transduct.pipeline.read_label_pairs``
and so on). A name that is deleted or moved in the package makes
``perfbench/run.py --trace 1`` crash, so these tests install each of its
target lists.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import CLI_TARGETS, IN_PROCESS_TARGETS, Tracer  # noqa: E402

from transduct import BlobSpec, RunConfig, make_synthetic, pipeline  # noqa: E402
from transduct.io import write_features_csv, write_labels_csv  # noqa: E402

IO_SPANS = {"io.read_features_csv", "io.read_label_pairs", "io.write_predictions_csv", "io.write_report_json"}


def test_in_process_targets_trace_run_and_eval(tmp_path):
    features, labels = make_synthetic(BlobSpec(blobs=2, per_blob=10, dim=8), seed=0)
    names = [f"c{v}" for v in labels.labels]
    fpath, lpath, apath = tmp_path / "f.csv", tmp_path / "l.csv", tmp_path / "a.csv"
    write_features_csv(fpath, features)
    write_labels_csv(lpath, features.ids, names)
    write_labels_csv(apath, [features.ids[0], features.ids[10]], [names[0], names[10]])
    tracer = Tracer(IN_PROCESS_TARGETS)
    try:
        tracer.install()
        pipeline.run_pipeline(
            RunConfig(
                method="gtg",
                features_path=str(fpath),
                labels_path=str(lpath),
                truth_path=str(lpath),
                anchors_path=str(apath),
                out_dir=str(tmp_path / "run"),
            )
        )
        run_spans, _ = tracer.take()
        pipeline.run_eval(fpath, lpath, metric_names=("recall@1", "nmi"), out_dir=str(tmp_path / "eval"))
        eval_spans, _ = tracer.take()
    finally:
        tracer.uninstall()
    assert IO_SPANS <= {span[0] for span in run_spans}
    assert {"io.read_features_csv", "io.read_label_pairs", "io.write_report_json"} <= {span[0] for span in eval_spans}


def test_cli_targets_resolve():
    tracer = Tracer(CLI_TARGETS)
    try:
        tracer.install()
    finally:
        tracer.uninstall()


#: Counters each method's run must add, beyond the graph's nnz.
METHOD_COUNTERS = {
    "gtg": {"dynamics.iterations", "dynamics.matvec_flops"},
    "group_loss": {"dynamics.iterations", "dynamics.matvec_flops"},
    "label_spreading": {"baselines.label_spreading.iterations"},
    "label_propagation": {
        "baselines.label_propagation.iterations",
        "baselines.label_propagation.calls",
        "baselines.label_propagation.converged",
    },
    "harmonic": set(),
}


def test_every_method_fires_its_counter_hooks(tmp_path):
    """Each method, dense and --knn, runs under the in-process targets and
    feeds the counters the benchmark's per-layer metrics are read from."""
    features, labels = make_synthetic(BlobSpec(blobs=2, per_blob=10, dim=8), seed=0)
    fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
    write_features_csv(fpath, features)
    write_labels_csv(lpath, features.ids, [f"c{v}" for v in labels.labels])
    tracer = Tracer(IN_PROCESS_TARGETS)
    try:
        tracer.install()
        for method, expected in METHOD_COUNTERS.items():
            for knn in (None, 5):
                pipeline.run_pipeline(
                    RunConfig(
                        method=method,
                        features_path=str(fpath),
                        labels_path=str(lpath),
                        truth_path=str(lpath),
                        anchor_fraction=0.2,
                        knn=knn,
                        out_dir=str(tmp_path / f"{method}-{knn}"),
                    )
                )
                spans, counts = tracer.take()
                # only the dynamics start from a prior
                pinned = "priors.inject_anchors" in {span[0] for span in spans}
                assert pinned == (method in pipeline.DYNAMICS_METHODS), (method, knn)
                assert expected <= set(counts), (method, knn, dict(counts))
                assert counts["similarity.graph_nnz"] > 0, (method, knn)
                # the dense graph is counted by its builder; the k-NN graph
                # has no dense form
                assert (counts["similarity.dense_bytes"] > 0) == (knn is None), (method, knn)
    finally:
        tracer.uninstall()
