import argparse
import csv
import dataclasses
import inspect
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from transduct import (
    UNLABELED,
    BlobSpec,
    FeatureSet,
    RunConfig,
    handle_negatives,
    harmonic_function,
    label_propagation,
    label_spreading,
    make_synthetic,
    pearson_matrix,
    run_dynamics,
    run_eval,
    run_pipeline,
    softmax_with_temperature,
    true_centroids,
)
from transduct.errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    DuplicateId,
    InvalidSpec,
    ParseError,
    UnknownId,
)
from transduct import cli, io, pipeline
from transduct.cli import main
from transduct.io import (
    read_features_csv,
    read_label_pairs,
    write_features_csv,
    write_labels_csv,
    write_predictions_csv,
    write_report_json,
)
from transduct.pipeline import PEARSON_2D_NOTE
from transduct.similarity import sparsify_knn

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError


@pytest.fixture
def blob_dataset(tmp_path):
    """Well-separated 3-class blobs in 16 dimensions plus CSV files."""
    spec = BlobSpec(blobs=3, per_blob=40, dim=16, separation=6.0, stddev=1.0)
    features, labels = make_synthetic(spec, seed=11)
    names = [f"c{v}" for v in labels.labels]
    fpath = tmp_path / "features.csv"
    lpath = tmp_path / "labels.csv"
    write_features_csv(fpath, features)
    write_labels_csv(lpath, features.ids, names)
    return fpath, lpath, features, labels


class TestIngest:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        features = FeatureSet(rng.normal(size=(7, 4)) * 1e-3, tuple(f"id{i}" for i in range(7)))
        path = tmp_path / "f.csv"
        write_features_csv(path, features)
        again = read_features_csv(path)
        np.testing.assert_array_equal(again.data, features.data)
        assert again.ids == features.ids

    def test_join_with_unlabeled(self, tmp_path):
        fpath = tmp_path / "f.csv"
        lpath = tmp_path / "l.csv"
        tpath = tmp_path / "t.csv"
        fpath.write_text("id,f0,f1\na,1,2\nb,3,4\nc,5,6\n")
        lpath.write_text("id,label\na,cat\nb,\nc,dog\n")
        tpath.write_text("id,label\na,ghost\nb,dog\n")
        features, labels, anchors, truth, classes, m, _ = pipeline._load_inputs(fpath, lpath, truth_path=tpath)
        assert features.n == 3
        assert labels.tolist() == [0, UNLABELED, 1]
        assert anchors is None
        # truth-only classes are indexed after the model's m classes
        assert classes == ("cat", "dog", "ghost") and m == 2
        assert truth.tolist() == [2, 1, UNLABELED]

    def test_unknown_id(self, tmp_path):
        fpath = tmp_path / "f.csv"
        lpath = tmp_path / "l.csv"
        fpath.write_text("id,f0,f1\na,1,2\n")
        lpath.write_text("id,label\nzz,cat\n")
        with pytest.raises(UnknownId):
            pipeline._load_inputs(fpath, lpath)

    def test_ragged_row(self, tmp_path):
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1\na,1,2\nb,3\n")
        with pytest.raises(DimensionMismatch):
            read_features_csv(fpath)

    def test_duplicate_id(self, tmp_path):
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1\na,1,2\na,3,4\n")
        with pytest.raises(DuplicateId):
            read_features_csv(fpath)

    def test_bad_float_has_line_context(self, tmp_path):
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1\na,1,2\nb,x,4\n")
        with pytest.raises(ParseError) as exc:
            read_features_csv(fpath)
        assert exc.value.line == 3

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "expected header 'id,label'"),
        ("id\na,x\n", 1, "expected header 'id,label'"),
        ("name,label\na,x\n", 1, "expected header 'id,label'"),
        ("id,class\na,x\n", 1, "expected a 'label' column, got 'class'"),
        ("id,label\n\na,x\n\nb\n", 5, "expected 'id,label'"),
    ], ids=["empty", "one-column-header", "other-first-column", "other-label-column", "one-field-row"])
    def test_malformed_label_file_is_a_data_error(self, tmp_path, capsys, text, line, message):
        """A ParseError naming the line, which counts blank rows; eval
        exits 2 with it as its one line."""
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1,f2\na,1,2,3\nb,3,2,1\n")
        lpath = tmp_path / "l.csv"
        lpath.write_text(text)
        expected = f"{lpath}:{line}: {message}"
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            read_label_pairs(lpath)
        assert main(["eval", "--features", str(fpath), "--truth", str(lpath), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"data error: {expected}\n"

    def test_label_file_blank_rows_are_skipped(self, tmp_path):
        lpath = tmp_path / "l.csv"
        lpath.write_text("id,predicted_label\n\na,x\n\r\nb,\n\n")
        assert read_label_pairs(lpath) == [("a", "x"), ("b", None)]

    @pytest.mark.parametrize("logits, message", [
        ("id,l0,l1,l2\na,1,0,0\nb,0,1,0\nc,0,0,1\n", "logits have 3 columns for 2 classes"),
        ("id,l0,l1\na,1,0\nc,0,1\n", "logits file must cover every sample"),
    ], ids=["columns", "missing-sample"])
    def test_logits_that_do_not_fit_are_a_data_error(self, tmp_path, capsys, logits, message):
        fpath, lpath, gpath = tmp_path / "f.csv", tmp_path / "l.csv", tmp_path / "g.csv"
        fpath.write_text("id,f0,f1,f2\na,1,2,3\nb,3,2,1\nc,1,3,2\n")
        lpath.write_text("id,label\na,x\nb,y\n")
        gpath.write_text(logits)
        fields = {"method": "gtg", "features_path": str(fpath), "labels_path": str(lpath), "logits_path": str(gpath),
                  "anchor_fraction": 1.0, "out_dir": str(tmp_path / "out")}
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            run_pipeline(RunConfig(**fields))
        assert main(["run", "--features", str(fpath), "--labels", str(lpath), "--logits", str(gpath),
                     "--method", "gtg", "--anchor-fraction", "1", "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestAtomicWrite:
    @pytest.mark.parametrize("previous", [b"previous run\n", None])
    @pytest.mark.parametrize("name", ["predictions.csv", "report.json"])
    def test_failed_write_keeps_previous_file(self, tmp_path, name, previous):
        """A writer that raises part way through leaves the target as it
        was, or absent, and no temporary file behind."""
        ids = [f"s{i}" for i in range(50)]
        writers = {
            "predictions.csv": lambda path: write_predictions_csv(path, ids, ["a"] * 49, np.full((50, 2), 0.5)),
            "report.json": lambda path: write_report_json(path, {"a": list(range(100)), "z": object()}),
        }
        path = tmp_path / name
        if previous is not None:
            path.write_bytes(previous)
        with pytest.raises((IndexError, TypeError)):
            writers[name](path)
        if previous is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [path]
            assert path.read_bytes() == previous


class TestMakeSynthetic:
    def test_shapes_and_separation(self):
        spec = BlobSpec(blobs=3, per_blob=100, dim=2, separation=6.0, stddev=1.0)
        features, labels = make_synthetic(spec, seed=7)
        assert features.n == 300 and features.dim == 2
        assert labels.num_classes == 3
        centroids = true_centroids(spec, seed=7)
        dists = np.linalg.norm(centroids[:, None] - centroids[None], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= 6.0

    def test_zero_stddev_puts_points_on_centroids(self):
        spec = BlobSpec(blobs=2, per_blob=3, dim=4, separation=2.0, stddev=0.0)
        features, labels = make_synthetic(spec, seed=1)
        centroids = true_centroids(spec, seed=1)
        np.testing.assert_array_equal(features.data, np.repeat(centroids, 3, axis=0))

    def test_single_blob(self):
        features, labels = make_synthetic(BlobSpec(blobs=1, per_blob=5, dim=2), seed=0)
        assert labels.num_classes == 1 and features.n == 5

    def test_deterministic(self):
        spec = BlobSpec()
        a, _ = make_synthetic(spec, seed=42)
        b, _ = make_synthetic(spec, seed=42)
        np.testing.assert_array_equal(a.data, b.data)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            BlobSpec(blobs=0)
        with pytest.raises(InvalidSpec):
            BlobSpec(stddev=-1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("blobs", "3", "blobs must be an integer, got '3'"),
        ("blobs", 2.5, "blobs must be an integer, got 2.5"),
        ("per_blob", None, "per_blob must be an integer, got None"),
        ("separation", "6", "separation must be a number, got '6'"),
        ("stddev", None, "stddev must be a number, got None"),
    ])
    def test_a_field_of_the_wrong_type_is_a_config_error(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            BlobSpec(**{field: value})

    def test_a_draw_that_overflows_is_an_invalid_spec(self):
        """A finite stddev can still scale a standard normal draw past
        float64; that is rejected as a separation too large to place the
        centroids is, with no RuntimeWarning."""
        with pytest.raises(InvalidSpec, match="^stddev too large: a drawn point overflows float64$"):
            make_synthetic(BlobSpec(stddev=1e308), 0)


class TestRunPipeline:
    def test_blobs_fully_recovered_at_high_dim(self, blob_dataset, tmp_path):
        fpath, lpath, features, labels = blob_dataset
        cfg = RunConfig(
            method="gtg",
            features_path=str(fpath),
            labels_path=str(lpath),
            truth_path=str(lpath),
            anchor_fraction=0.05,
            seed=11,
            metrics=("accuracy", "macro_f1", "nmi", "recall@1"),
            out_dir=str(tmp_path / "out"),
        )
        _, report = run_pipeline(cfg)
        assert report["metrics"]["accuracy"] >= 0.98
        assert report["metrics"]["recall@1"] >= 0.98
        assert report["converged"]
        values = report["functional_trace"]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_two_dim_pearson_collapse_is_reported(self, tmp_path):
        """The blob gate's spec at d=2: the clamped Pearson graph holds only
        0s and 1s (a sign bipartition), and the report says so."""
        spec = BlobSpec(blobs=3, per_blob=100, dim=2, separation=6.0, stddev=1.0)
        features, labels = make_synthetic(spec, seed=7)
        w, _ = pearson_matrix(features)
        w = handle_negatives(w, "clamp")
        assert np.all((np.abs(w) <= 1e-12) | (np.abs(w - 1.0) <= 1e-12))

        fpath = tmp_path / "features.csv"
        lpath = tmp_path / "labels.csv"
        write_features_csv(fpath, features)
        write_labels_csv(lpath, features.ids, [f"blob{v}" for v in labels.labels])
        cfg = RunConfig(
            method="gtg",
            features_path=str(fpath),
            labels_path=str(lpath),
            truth_path=str(lpath),
            anchor_fraction=0.02,
            seed=7,
            out_dir=str(tmp_path / "out"),
        )
        run_pipeline(cfg)
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert PEARSON_2D_NOTE in saved["warnings"]["notes"]

    def test_anchors_everywhere_reproduces_labels(self, blob_dataset, tmp_path):
        fpath, lpath, features, labels = blob_dataset
        cfg = RunConfig(
            method="gtg",
            features_path=str(fpath),
            labels_path=str(lpath),
            anchor_fraction=1.0,
            seed=0,
            out_dir=str(tmp_path / "out"),
        )
        predictions_path, report = run_pipeline(cfg)
        assert report["iterations_used"] == 1 and report["converged"]
        rows = predictions_path.read_text().strip().splitlines()[1:]
        decoded = [row.split(",")[1] for row in rows]
        assert decoded == [f"c{v}" for v in labels.labels]

    def test_every_method_has_stable_report_schema(self, blob_dataset, tmp_path):
        fpath, lpath, *_ = blob_dataset
        schemas = []
        for method in ("gtg", "group_loss", "label_spreading", "label_propagation", "harmonic"):
            cfg = RunConfig(
                method=method,
                features_path=str(fpath),
                labels_path=str(lpath),
                truth_path=str(lpath),
                anchor_fraction=0.1,
                seed=3,
                out_dir=str(tmp_path / method),
            )
            _, report = run_pipeline(cfg)
            schemas.append((sorted(report), sorted(report["warnings"])))
        assert all(s == schemas[0] for s in schemas)
        _, report = run_eval(fpath, lpath, out_dir=str(tmp_path / "eval"))
        assert (sorted(report), sorted(report["warnings"])) == schemas[0]
        # harmonic and eval iterate nothing
        for name in ("harmonic", "eval"):
            saved = json.loads((tmp_path / name / "report.json").read_text())
            facts = (saved["iterations_used"], saved["converged"], saved["functional_trace"])
            assert facts == (0, True, []) and saved["warnings"]["degenerate_rows"] == [], name

    def test_group_loss_reports_cross_entropy(self, blob_dataset, tmp_path):
        fpath, lpath, *_ = blob_dataset
        cfg = RunConfig(
            method="group_loss",
            features_path=str(fpath),
            labels_path=str(lpath),
            truth_path=str(lpath),
            anchor_fraction=0.1,
            seed=3,
            metrics=("accuracy",),
            out_dir=str(tmp_path / "out"),
        )
        _, report = run_pipeline(cfg)
        assert report["iterations_used"] == 3  # fixed-step refinement default
        assert "cross_entropy" in report["metrics"]
        assert report["metrics"]["cross_entropy"] >= 0.0

    def test_stratified_anchor_determinism(self, blob_dataset, tmp_path):
        fpath, lpath, *_ = blob_dataset
        reports = []
        for run in range(2):
            cfg = RunConfig(
                method="gtg",
                features_path=str(fpath),
                labels_path=str(lpath),
                anchor_fraction=0.5,
                seed=9,
                out_dir=str(tmp_path / f"run{run}"),
            )
            _, report = run_pipeline(cfg)
            reports.append(report)
        assert reports[0]["num_anchors"] == reports[1]["num_anchors"]
        assert reports[0]["functional_trace"] == reports[1]["functional_trace"]

    def test_anchor_source_validation(self, blob_dataset):
        fpath, lpath, *_ = blob_dataset
        with pytest.raises(ConfigError):
            RunConfig(method="gtg", features_path=str(fpath), labels_path=str(lpath))
        with pytest.raises(ConfigError):
            RunConfig(
                method="gtg",
                features_path=str(fpath),
                labels_path=str(lpath),
                anchor_fraction=0.5,
                anchors_path=str(lpath),
            )
        with pytest.raises(ConfigError):
            RunConfig(method="nope", features_path=str(fpath), anchor_fraction=0.5)

    def test_anchors_file_mode(self, blob_dataset, tmp_path):
        fpath, lpath, features, labels = blob_dataset
        apath = tmp_path / "anchors.csv"
        picks = [0, 40, 80]
        write_labels_csv(apath, [features.ids[i] for i in picks], [f"c{labels.labels[i]}" for i in picks])
        cfg = RunConfig(
            method="gtg",
            features_path=str(fpath),
            labels_path=str(lpath),
            truth_path=str(lpath),
            anchors_path=str(apath),
            seed=0,
            out_dir=str(tmp_path / "out"),
        )
        _, report = run_pipeline(cfg)
        assert report["num_anchors"] == 3
        assert report["metrics"]["accuracy"] >= 0.95

    @pytest.mark.parametrize("method", ["gtg", "group_loss"])
    def test_truth_never_reaches_the_model(self, blob_dataset, tmp_path, method):
        """A class that appears only in --truth changes no byte of the
        predictions, and its row scores as a miss."""
        fpath, _, features, labels = blob_dataset
        apath = tmp_path / "anchors.csv"
        picks = [0, 40, 80]
        write_labels_csv(apath, [features.ids[i] for i in picks], [f"c{labels.labels[i]}" for i in picks])
        truth = [f"c{v}" for v in labels.labels]
        truth[5] = "ghost"
        tpath = tmp_path / "truth.csv"
        write_labels_csv(tpath, features.ids, truth)
        outputs = []
        for name, truth_path in (("plain", None), ("ghost", str(tpath))):
            cfg = RunConfig(
                method=method,
                features_path=str(fpath),
                truth_path=truth_path,
                anchors_path=str(apath),
                metrics=("accuracy", "macro_f1"),
                out_dir=str(tmp_path / name),
            )
            predictions_path, report = run_pipeline(cfg)
            outputs.append(predictions_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert report["classes"] == ["c0", "c1", "c2"]
        predicted = [line.split(",")[1] for line in outputs[1].decode().splitlines()[1:]]
        held_out = [i for i in range(features.n) if i not in picks]
        hits = sum(predicted[i] == truth[i] for i in held_out)
        assert predicted[5] != "ghost"
        assert report["metrics"]["accuracy"] == hits / len(held_out)
        # ghost has F1 0, so the mean over four classes is at most 3/4
        assert report["metrics"]["macro_f1"] <= 0.75
        assert np.isfinite(report["metrics"].get("cross_entropy", 0.0))

    def test_logits_prior_with_temperature(self, blob_dataset, tmp_path):
        fpath, lpath, features, labels = blob_dataset
        # logits already point at the right class; gtg should keep them
        logits = np.where(np.eye(3)[labels.labels] > 0, 4.0, 0.0)
        lg = tmp_path / "logits.csv"
        with open(lg, "w") as fh:
            fh.write("id,l0,l1,l2\n")
            for sid, row in zip(features.ids, logits):
                fh.write(f"{sid},{row[0]},{row[1]},{row[2]}\n")
        cfg = RunConfig(
            method="gtg",
            features_path=str(fpath),
            labels_path=str(lpath),
            truth_path=str(lpath),
            logits_path=str(lg),
            temperature=0.5,
            anchor_fraction=0.05,
            seed=1,
            out_dir=str(tmp_path / "out"),
        )
        _, report = run_pipeline(cfg)
        assert report["metrics"]["accuracy"] >= 0.98

    @pytest.mark.parametrize("method", ["gtg", "group_loss", "label_spreading", "label_propagation", "harmonic"])
    @pytest.mark.parametrize("mode", ["clamp", "shift"])
    def test_knn_run_matches_dense_reference_graph(self, blob_dataset, tmp_path, monkeypatch, method, mode):
        """--knn propagates over knn_graph's CSR output; the same run over
        the dense reference graph gives the same assignment."""
        fpath, lpath, *_ = blob_dataset
        assignments = []
        for name in ("csr", "dense"):
            if name == "dense":
                monkeypatch.setattr(
                    pipeline,
                    "knn_graph",
                    lambda features, k, m: (
                        sparsify_knn(handle_negatives(pearson_matrix(features)[0], m), k),
                        pearson_matrix(features)[1],
                    ),
                )
            cfg = RunConfig(
                method=method,
                features_path=str(fpath),
                labels_path=str(lpath),
                truth_path=str(lpath),
                anchor_fraction=0.1,
                negative_handling=mode,
                knn=5,
                seed=3,
                out_dir=str(tmp_path / name),
            )
            predictions_path, report = run_pipeline(cfg)
            rows = [line.split(",") for line in predictions_path.read_text().strip().splitlines()[1:]]
            assignments.append(np.array([[float(v) for v in row[3:]] for row in rows]))
        np.testing.assert_allclose(assignments[0], assignments[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "method, overrides, note",
        [
            ("gtg", {"max_iterations": 2},
             "gtg stopped at its 2-step iteration cap without converging (tolerance 1e-06)"),
            ("label_spreading", {"max_iterations": 3},
             "label_spreading stopped at its 3-step iteration cap without converging (tolerance 1e-08)"),
            ("label_propagation", {"max_iterations": 4},
             "label_propagation stopped at its 4-step iteration cap without converging (tolerance 1e-08)"),
        ],
    )
    def test_iteration_cap_is_reported(self, blob_dataset, tmp_path, method, overrides, note):
        fpath, lpath, *_ = blob_dataset
        reports = []
        for _ in range(2):
            cfg = RunConfig(
                method=method,
                features_path=str(fpath),
                labels_path=str(lpath),
                anchor_fraction=0.1,
                seed=3,
                metrics=(),
                out_dir=str(tmp_path),
                **overrides,
            )
            _, report = run_pipeline(cfg)
            assert not report["converged"]
            assert report["warnings"]["notes"] == [note]
            reports.append((tmp_path / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_skip_notes_come_before_the_cap_note(self, blob_dataset, tmp_path):
        """Every truth row is an anchor, so both metrics are skipped, and the
        run stops at its cap: the skip notes are listed first."""
        fpath, lpath, features, labels = blob_dataset
        apath = tmp_path / "anchors.csv"
        picks = [0, 40, 80]
        write_labels_csv(apath, [features.ids[i] for i in picks], [f"c{labels.labels[i]}" for i in picks])
        assert main(["run", "--features", str(fpath), "--labels", str(lpath), "--anchors-file", str(apath),
                     "--truth", str(apath), "--method", "label_propagation", "--max-iters", "2",
                     "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metrics"] == {}
        assert report["warnings"]["notes"] == [
            "metric accuracy skipped: no held-out labeled rows",
            "metric macro_f1 skipped: no held-out labeled rows",
            "label_propagation stopped at its 2-step iteration cap without converging (tolerance 1e-08)",
        ]

    def test_path_fields_write_the_same_report_as_strings(self, blob_dataset, tmp_path):
        """A run given pathlib.Path fields writes both files, byte for byte
        those of the same run given strings."""
        fpath, lpath, *_ = blob_dataset
        out = tmp_path / "out"
        written = []
        for as_path in (str, Path):
            cfg = RunConfig(method="gtg", features_path=as_path(fpath), labels_path=as_path(lpath),
                            truth_path=as_path(lpath), anchor_fraction=0.1, seed=3, out_dir=as_path(out))
            assert isinstance(cfg.features_path, str) and isinstance(cfg.out_dir, str)
            run_pipeline(cfg)
            written.append([(out / name).read_bytes() for name in ("predictions.csv", "report.json")])
            for name in ("predictions.csv", "report.json"):
                (out / name).unlink()
        assert written[0] == written[1]

    @pytest.mark.parametrize("field, value, message", [
        ("features_path", 3, "features_path must be a str or os.PathLike path, got 3"),
        ("features_path", None, "features_path must be a str or os.PathLike path, got None"),
        ("truth_path", b"t.csv", "truth_path must be a str or os.PathLike path, got b't.csv'"),
        ("out_dir", None, "out_dir must be a str or os.PathLike path, got None"),
        ("anchor_fraction", "0.5", "anchor_fraction must be a number, got '0.5'"),
        ("metrics", "accuracy", "metrics must be a sequence of metric names, got 'accuracy'"),
        ("metrics", ("accuracy", 3), "metrics must be a sequence of metric names, got ('accuracy', 3)"),
        ("metrics", None, "metrics must be a sequence of metric names, got None"),
    ])
    def test_a_field_of_the_wrong_type_is_a_config_error(self, field, value, message):
        fields = {"method": "gtg", "features_path": "f.csv", "anchor_fraction": 0.5, field: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**fields)

    @pytest.mark.parametrize("field, value, flags, message", [
        *(pytest.param("anchor_fraction", value, ["--anchor-fraction", str(value)], "anchor_fraction must lie in (0, 1]",
                       id=f"anchor-fraction-{value}") for value in (0.0, 1.5, float("nan"))),
        pytest.param("metrics", ("bogus",), ["--metrics", "bogus"], "unknown metric 'bogus'", id="metric"),
        # the CLI offers the modes as choices, so only the library reaches this one
        pytest.param("negative_handling", "x", None, "unknown negative-handling mode 'x' (use clamp or shift)",
                     id="negative-handling"),
    ])
    def test_a_field_out_of_range_is_a_config_error(self, tmp_path, capsys, field, value, flags, message):
        """Raised before any file is read: the features file does not exist."""
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**{"method": "gtg", "features_path": missing, "anchor_fraction": 0.5, field: value})
        if flags is not None:
            flags = flags if field == "anchor_fraction" else ["--anchor-fraction", "0.5", *flags]
            assert main(["run", "--features", missing, "--method", "gtg", *flags,
                         "--out-dir", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not (tmp_path / "out").exists()

    def test_anchor_fraction_needs_a_labeled_row_to_pick(self, tmp_path, capsys):
        """0.4 of 2 labeled rows picks none. A run always has a labeled row
        to sample from (it needs two classes); a direct call with none
        picks none either."""
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        fpath.write_text("id,f0,f1,f2\na,1,2,3\nb,3,2,1\nc,1,3,2\n")
        lpath.write_text("id,label\na,x\nb,y\n")
        message = "anchor_fraction times the labeled count must be at least 1"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_pipeline(RunConfig(method="gtg", features_path=str(fpath), labels_path=str(lpath),
                                   anchor_fraction=0.4, out_dir=str(tmp_path / "out")))
        assert main(["run", "--features", str(fpath), "--labels", str(lpath), "--method", "gtg",
                     "--anchor-fraction", "0.4", "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            pipeline._stratified_anchors(np.full(3, UNLABELED), 2, 1.0, 0)

    def test_metrics_are_stored_as_a_tuple(self):
        cfg = RunConfig(method="gtg", features_path="f.csv", anchor_fraction=0.5, metrics=["accuracy", "nmi"])
        assert cfg.metrics == ("accuracy", "nmi")
        assert hash(cfg) == hash(dataclasses.replace(cfg, metrics=("accuracy", "nmi")))

    def test_fixed_steps_and_convergence_add_no_cap_note(self, blob_dataset, tmp_path):
        fpath, lpath, *_ = blob_dataset
        for method, loop in (("group_loss", {}), ("gtg", {"max_iterations": 2, "tolerance": 0.0}), ("gtg", {})):
            cfg = RunConfig(
                method=method,
                features_path=str(fpath),
                labels_path=str(lpath),
                anchor_fraction=0.1,
                seed=3,
                metrics=(),
                out_dir=str(tmp_path / method),
                **loop,
            )
            _, report = run_pipeline(cfg)
            assert report["warnings"]["notes"] == []

    def test_logits_file_is_checked_before_the_graph_is_built(self, blob_dataset, tmp_path, monkeypatch):
        fpath, lpath, features, _ = blob_dataset
        lg = tmp_path / "logits.csv"
        lg.write_text("id,l0,l1,l2\n" + "".join(f"{sid},0,0,0\n" for sid in features.ids) + "ghost,0,0,0\n")

        def no_graph(*args):
            raise AssertionError("the graph was built before the logits file was checked")

        monkeypatch.setattr(pipeline, "pearson_matrix", no_graph)
        cfg = RunConfig(method="gtg", features_path=str(fpath), labels_path=str(lpath), logits_path=str(lg),
                        anchor_fraction=0.1, out_dir=str(tmp_path / "out"))
        with pytest.raises(UnknownId, match="^.*logits.csv: id 'ghost' does not appear in the feature file$"):
            run_pipeline(cfg)

    def test_a_partial_truth_run_copies_features_only_for_recall(self, tmp_path):
        """``_score`` copies the truth rows of the n x d matrix only for a
        metric that reads them; a run that scores accuracy alone makes no
        such copy, though the truth file labels half the rows."""
        features, labels = make_synthetic(BlobSpec(blobs=3, per_blob=100, dim=64), seed=0)
        fpath, lpath, tpath = tmp_path / "f.csv", tmp_path / "l.csv", tmp_path / "t.csv"
        names = [f"c{v}" for v in labels.labels]
        write_features_csv(fpath, features)
        write_labels_csv(lpath, features.ids, names)
        write_labels_csv(tpath, features.ids, [name if i % 2 else None for i, name in enumerate(names)])
        score, peaks = pipeline._score, {}

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return score(*args, **kwargs)
            finally:
                peaks[args[0]] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        with mock.patch.object(pipeline, "_score", measured):
            for metrics in [("accuracy",), ("accuracy", "recall@1")]:
                cfg = RunConfig(method="harmonic", features_path=str(fpath), labels_path=str(lpath),
                                truth_path=str(tpath), anchor_fraction=0.1, metrics=metrics,
                                out_dir=str(tmp_path / "out"))
                run_pipeline(cfg)
        copy = features.data.nbytes // 2
        assert peaks[("accuracy",)] < copy // 4 and peaks[("accuracy", "recall@1")] >= copy


class TestRunEval:
    def test_eval_metrics(self, blob_dataset, tmp_path):
        fpath, lpath, *_ = blob_dataset
        _, report = run_eval(
            fpath,
            lpath,
            metric_names=("recall@1", "recall@2", "nmi"),
            seed=0,
            out_dir=str(tmp_path / "ev"),
        )
        assert report["metrics"]["recall@1"] >= 0.98
        assert report["metrics"]["nmi"] >= 0.9

    def test_eval_scores_the_parsed_matrix_when_every_row_is_a_truth_row(self, blob_dataset, tmp_path):
        """recall@K and k-means get the feature matrix itself, not a
        fancy-index copy of all n rows."""
        fpath, lpath, *_ = blob_dataset
        parsed = []

        def reader(path):
            parsed.append(read_features_csv(path))
            return parsed[-1]

        with mock.patch.object(pipeline, "read_features_csv", reader), \
                mock.patch.object(pipeline.metrics_mod, "recall_at_k", wraps=pipeline.metrics_mod.recall_at_k) as recall, \
                mock.patch.object(pipeline, "kmeans", wraps=pipeline.kmeans) as kmeans:
            run_eval(fpath, lpath, metric_names=("recall@1", "nmi"), out_dir=str(tmp_path / "ev"))
        assert recall.call_args.args[0] is parsed[0].data
        assert kmeans.call_args.args[0] is parsed[0].data

    def test_nmi_ignores_classes_only_in_labels(self, tmp_path):
        """nmi clusters into one group per truth class; a predictions file
        that adds a class must not change it."""
        features, labels = make_synthetic(BlobSpec(blobs=4, per_blob=60, dim=16), seed=0)
        fpath, tpath, ppath = tmp_path / "f.csv", tmp_path / "t.csv", tmp_path / "p.csv"
        names = [f"blob{c}" for c in labels.labels]
        write_features_csv(fpath, features)
        write_labels_csv(tpath, features.ids, names)
        write_labels_csv(ppath, features.ids, ["extra"] + names[1:])

        def nmi(labels_path):
            _, report = run_eval(fpath, tpath, labels_path=labels_path, metric_names=("nmi",),
                                 out_dir=str(tmp_path / "ev"))
            return report["metrics"]["nmi"]

        assert nmi(str(ppath)) == nmi(str(tpath)) == nmi(None) == 1.0

    def test_truth_that_labels_nothing_is_a_data_error(self, tmp_path, capsys):
        fpath, tpath = tmp_path / "f.csv", tmp_path / "t.csv"
        fpath.write_text("id,f0,f1,f2\na,1,2,3\nb,3,2,1\n")
        tpath.write_text("id,label\na,\nb,\n")
        message = f"{tpath}: no labeled rows to evaluate"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            run_eval(fpath, tpath, out_dir=str(tmp_path / "out"))
        assert main(["eval", "--features", str(fpath), "--truth", str(tpath), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_out_dir_is_echoed_as_given(self, blob_dataset, tmp_path, monkeypatch):
        """eval records ``out_dir`` as it was given, as run does."""
        fpath, lpath = str(blob_dataset[0]), str(blob_dataset[1])
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--features", fpath, "--truth", lpath, "--metrics", "recall@1", "--out-dir", "./ev/"]) == 0
        assert json.loads((tmp_path / "ev" / "report.json").read_text())["config"]["out_dir"] == "./ev/"
        _, report = run_eval(fpath, lpath, metric_names=("recall@1",), out_dir="./lib/")
        assert report["config"]["out_dir"] == "./lib/"
        assert main(["run", "--features", fpath, "--labels", lpath, "--method", "harmonic", "--anchor-fraction", "0.1",
                     "--out-dir", "./run/"]) == 0
        assert json.loads((tmp_path / "run" / "report.json").read_text())["config"]["out_dir"] == "./run/"

    @pytest.mark.parametrize("argument, value, message", [
        ("features_path", None, "features_path must be a str or os.PathLike path, got None"),
        ("truth_path", 3, "truth_path must be a str or os.PathLike path, got 3"),
        ("labels_path", 3, "labels_path must be a str or os.PathLike path, got 3"),
        ("out_dir", None, "out_dir must be a str or os.PathLike path, got None"),
        ("metric_names", "nmi", "metrics must be a sequence of metric names, got 'nmi'"),
        ("metric_names", ("nmi", 3), "metrics must be a sequence of metric names, got ('nmi', 3)"),
        ("metric_names", None, "metrics must be a sequence of metric names, got None"),
    ])
    def test_an_argument_of_the_wrong_type_is_a_config_error(self, tmp_path, argument, value, message):
        """Raised before any file is read: the input files do not exist."""
        missing = str(tmp_path / "missing.csv")
        arguments = {"features_path": missing, "truth_path": missing, "out_dir": str(tmp_path / "out"), argument: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_eval(**arguments)
        assert not (tmp_path / "out").exists()

    def test_eval_with_predictions(self, blob_dataset, tmp_path):
        fpath, lpath, *_ = blob_dataset
        _, report = run_eval(
            fpath,
            lpath,
            labels_path=str(lpath),
            metric_names=("accuracy", "macro_f1"),
            out_dir=str(tmp_path / "ev"),
        )
        assert report["metrics"]["accuracy"] == 1.0


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "transduct.cli", *args],
            capture_output=True,
            text=True,
        )

    @pytest.mark.parametrize("stage", ["read_features_csv", "knn_graph", "label_propagation", "kmeans",
                                       "write_predictions_csv"])
    @pytest.mark.parametrize("refused", [(20000, 256), None], ids=["numpy array", "bare"])
    def test_running_out_of_memory_is_exit_4(self, blob_dataset, tmp_path, capsys, stage, refused):
        """One stderr line that names the bytes numpy asked for, when its
        error carries them; ``eval`` is the command that runs k-means."""
        fpath, lpath, *_ = blob_dataset
        error = MemoryError() if refused is None else _ArrayMemoryError(refused, np.dtype(np.float64))
        argv = (["eval", "--features", str(fpath), "--truth", str(lpath), "--metrics", "nmi"] if stage == "kmeans" else
                ["run", "--features", str(fpath), "--labels", str(lpath), "--method", "label_propagation",
                 "--knn", "5", "--anchor-fraction", "0.2"])
        with mock.patch.object(pipeline, stage, side_effect=error):
            assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 4
        asked = ("out of memory" if refused is None else
                 "Unable to allocate 39.1 MiB for an array with shape (20000, 256) and data type float64")
        assert capsys.readouterr().err == f"memory error: {asked}\n"

    def test_a_kept_parse_writes_what_a_fresh_process_writes(self, blob_dataset, tmp_path):
        """Two in-process runs on one features file, the second on the
        parse the first kept, write the bytes of a ``transduct run`` in a
        fresh interpreter, apart from the output directory."""
        fpath, lpath, *_ = blob_dataset
        with mock.patch.object(io, "_read_records", wraps=io._read_records) as parse:
            for name in ("first", "second"):
                run_pipeline(RunConfig(method="gtg", features_path=str(fpath), labels_path=str(lpath),
                                       truth_path=str(lpath), anchor_fraction=0.1, seed=3,
                                       metrics=("accuracy", "recall@1"), out_dir=str(tmp_path / name)))
        assert parse.call_count == 1
        r = self.run_cli(
            "run", "--features", str(fpath), "--labels", str(lpath), "--truth", str(lpath),
            "--method", "gtg", "--anchor-fraction", "0.1", "--seed", "3",
            "--metrics", "accuracy,recall@1", "--out-dir", str(tmp_path / "fresh"),
        )
        assert r.returncode == 0, r.stderr

        def written(name):
            out = tmp_path / name
            report = (out / "report.json").read_text().replace(json.dumps(str(out)), '"OUT"')
            return (out / "predictions.csv").read_bytes(), report

        assert written("first") == written("second") == written("fresh")

    def test_synth_run_eval_round_trip(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        r = self.run_cli(
            "synth", "--blobs", "3", "--per-blob", "30", "--dim", "8",
            "--separation", "6", "--stddev", "1", "--seed", "5", "--out-dir", str(data),
        )
        assert r.returncode == 0, r.stderr
        r = self.run_cli(
            "run", "--features", str(data / "features.csv"),
            "--labels", str(data / "labels.csv"), "--truth", str(data / "labels.csv"),
            "--method", "gtg", "--anchor-fraction", "0.1", "--seed", "5",
            "--out-dir", str(out), "--metrics", "accuracy,nmi",
        )
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["accuracy"] >= 0.95
        r = self.run_cli(
            "eval", "--features", str(data / "features.csv"),
            "--truth", str(data / "labels.csv"),
            "--labels", str(out / "predictions.csv"),
            "--metrics", "accuracy,recall@1", "--out-dir", str(tmp_path / "ev"),
        )
        assert r.returncode == 0, r.stderr

    def test_exit_code_config_error(self, tmp_path):
        r = self.run_cli("run", "--features", "f.csv", "--method", "gtg")
        assert r.returncode == 1

    def test_non_finite_tolerance_is_a_config_error(self, tmp_path):
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1,f2\na,1,2,3\nb,3,2,1\n")
        r = self.run_cli(
            "run", "--features", str(fpath), "--method", "gtg", "--anchor-fraction", "0.5",
            "--tol", "nan", "--out-dir", str(tmp_path / "out"),
        )
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["config error: tolerance must be finite and >= 0, got nan"]

    def test_a_dense_graph_past_the_memory_limit_is_a_config_error(self, tmp_path):
        """A child process whose address space is capped at 2.5 GiB cannot
        allocate the 3.0 GiB dense graph of 20,000 samples: one line,
        exit 1. Only the child's own limit is lowered."""
        data = tmp_path / "data"
        r = self.run_cli("synth", "--blobs", "2", "--per-blob", "10000", "--dim", "3", "--out-dir", str(data))
        assert r.returncode == 0, r.stderr
        limit = 2500 * 2**20
        r = subprocess.run(
            [sys.executable, "-m", "transduct.cli", "run", "--features", str(data / "features.csv"),
             "--labels", str(data / "labels.csv"), "--method", "gtg", "--anchor-fraction", "0.01",
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "TRANSDUCT_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert r.returncode == 1
        assert r.stderr.splitlines() == [
            "config error: the dense graph of 20000 samples needs 8*n^2 bytes = 2.98 GiB, more than could be"
            " allocated; use --knn for a sparse graph"
        ]

    @pytest.mark.parametrize("argv", [
        ["run", "--features", "f.csv", "--method", "gtg", "--anchor-fraction", "0.1", "--seed", "-1"],
        ["eval", "--features", "f.csv", "--truth", "t.csv", "--seed", "-1"],
        ["synth", "--seed", "-1"],
        *(["synth", "--separation", value] for value in ("inf", "nan", "1e308")),
        *(["synth", "--stddev", value] for value in ("inf", "nan", "1e308")),
    ], ids=["run-seed", "eval-seed", "synth-seed", "separation-inf", "separation-nan", "separation-1e308",
            "stddev-inf", "stddev-nan", "stddev-1e308"])
    def test_negative_seed_and_undrawable_spec_are_config_errors(self, tmp_path, capsys, argv):
        """Rejected before any file is read or written: the inputs do not exist."""
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "nan", "inf", "out-dir-is-a-file"])
    def test_exit_code_data_error(self, tmp_path, case):
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1,f2\na,1,2,3\nb,3,2,1\n")
        lpath = tmp_path / "l.csv"
        lpath.write_text("id,label\na,x\nb,y\n")
        out_dir = tmp_path / "out"
        if case == "missing":
            fpath = tmp_path / "nope.csv"
        elif case == "directory":
            fpath = tmp_path
        elif case == "not-utf8":
            fpath.write_bytes(b"id,f0,f1,f2\na,1,2,3\nb,3,\xff,1\n")
        elif case in ("nan", "inf"):
            fpath.write_text(f"id,f0,f1,f2\na,1,2,3\nb,3,{case},1\n")
        else:
            out_dir.write_text("")
        r = self.run_cli(
            "run", "--features", str(fpath), "--labels", str(lpath), "--method", "gtg",
            "--anchor-fraction", "1.0", "--out-dir", str(out_dir),
        )
        assert r.returncode == 2, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        if case in ("nan", "inf"):
            assert f"{fpath}:3:" in r.stderr

    @pytest.mark.parametrize("bad_file", ["run-labels", "eval-truth", "run-features"])
    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path, bad_file):
        """A field longer than the ``csv`` module's limit (131072
        characters) in a labels or truth file, or a quoted features file,
        exits 2 with one line naming its file and line."""
        big = "9" * 200_000
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1,f2\na,1,2,3\nb,3,2,1\n")
        lpath = tmp_path / "l.csv"
        lpath.write_text("id,label\na,x\nb,y\n")
        if bad_file == "run-features":
            fpath.write_text(f'id,f0,f1,f2\n"a",1,2,3\nb,3,2,{big}\n')
        else:
            lpath.write_text(f"id,label\na,x\nb,{big}\n")
        if bad_file == "eval-truth":
            args = ["eval", "--features", str(fpath), "--truth", str(lpath), "--metrics", "accuracy"]
        else:
            args = ["run", "--features", str(fpath), "--labels", str(lpath), "--method", "gtg",
                    "--anchor-fraction", "1.0"]
        r = self.run_cli(*args, "--out-dir", str(tmp_path / "out"))
        assert r.returncode == 2, r.stderr
        path = fpath if bad_file == "run-features" else lpath
        assert r.stderr.splitlines() == [f"data error: {path}:3: field larger than field limit (131072)"]

    @pytest.mark.parametrize("anchors, with_labels, code, message", [
        ("id,label\na,x\na,y\n", True, 2, "data error: {path}:3: duplicate id 'a'"),
        ("id,label\na,x\nb,\n", True, 2, "data error: {path}: anchor rows must carry a label (id 'b')"),
        ("id,label\n", True, 1, "config error: anchor set is empty"),
        ("id,label\n", False, 1, "config error: need at least two distinct classes, found 0"),
    ], ids=["duplicate-id", "blank-label", "header-only", "header-only-no-labels"])
    def test_exit_code_anchors_file(self, tmp_path, anchors, with_labels, code, message):
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1,f2\na,1,2,3\nb,3,2,1\nc,1,3,2\n")
        lpath = tmp_path / "l.csv"
        lpath.write_text("id,label\na,x\nb,y\nc,\n")
        apath = tmp_path / "anchors.csv"
        apath.write_text(anchors)
        labels = ["--labels", str(lpath)] if with_labels else []
        r = self.run_cli(
            "run", "--features", str(fpath), *labels, "--method", "gtg",
            "--anchors-file", str(apath), "--out-dir", str(tmp_path / "out"),
        )
        assert r.returncode == code, r.stderr
        assert r.stderr.splitlines() == [message.format(path=apath)]

    @pytest.mark.parametrize("method, flags, message", [
        *(pytest.param(method, ["--logits", "missing.csv"],
                       f"a logits prior applies only to gtg and group_loss, not to {method}", id=method)
          for method in ("label_spreading", "label_propagation", "harmonic")),
        *(pytest.param(method, ["--alpha", "0.5"], f"alpha does not apply to {method}", id=f"alpha-{method}")
          for method in ("gtg", "group_loss", "label_propagation", "harmonic")),
        pytest.param("harmonic", ["--max-iters", "40"], "max_iterations does not apply to harmonic",
                     id="max-iters-harmonic"),
        pytest.param("harmonic", ["--tol", "0"], "tolerance does not apply to harmonic", id="tol-harmonic"),
        pytest.param("gtg", ["--temperature", "3"], "temperature does not apply to gtg without a logits prior",
                     id="temperature-without-logits"),
    ])
    def test_exit_code_logits_with_a_baseline(self, tmp_path, method, flags, message):
        """A setting the method does not read is a config error, raised
        before any file is read or the output directory is made."""
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1,f2\na,1,2,3\nb,3,2,1\n")
        lpath = tmp_path / "l.csv"
        lpath.write_text("id,label\na,x\nb,y\n")
        r = self.run_cli(
            "run", "--features", str(fpath), "--labels", str(lpath), "--method", method,
            "--anchor-fraction", "0.5", *flags, "--out-dir", str(tmp_path / "out"),
        )
        assert r.returncode == 1, r.stderr
        assert r.stderr.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["label_spreading", "label_propagation"])
    def test_loop_flags_reach_the_baselines(self, blob_dataset, tmp_path, method):
        fpath, lpath = str(blob_dataset[0]), str(blob_dataset[1])
        common = ["run", "--features", fpath, "--labels", lpath, "--method", method, "--anchor-fraction", "0.1",
                  "--metrics", ""]
        assert main([*common, "--tol", "0", "--max-iters", "40", "--out-dir", str(tmp_path / "fixed")]) == 0
        report = json.loads((tmp_path / "fixed" / "report.json").read_text())
        assert (report["iterations_used"], report["converged"]) == (40, False)
        assert report["warnings"]["notes"] == []
        assert (report["config"]["max_iterations"], report["config"]["tolerance"]) == (40, 0.0)
        assert main([*common, "--max-iters", "5", "--out-dir", str(tmp_path / "capped")]) == 0
        report = json.loads((tmp_path / "capped" / "report.json").read_text())
        assert (report["iterations_used"], report["converged"]) == (5, False)
        assert report["warnings"]["notes"] == [
            f"{method} stopped at its 5-step iteration cap without converging (tolerance 1e-08)"
        ]

    def test_defaults_match_the_library(self, blob_dataset, tmp_path, monkeypatch):
        """A run of each method (and gtg with a logits file) and an eval,
        given only their required flags, echo the same config as the
        library calls given only their required arguments. Each setting a
        method reads echoes the default of the library call that reads it
        (``group_loss`` is the 3-step, tolerance-0 refinement); the others
        echo null."""
        fpath, lpath, features, _ = blob_dataset
        lg = tmp_path / "logits.csv"
        lg.write_text("id,l0,l1,l2\n" + "".join(f"{sid},1,0,0\n" for sid in features.ids))
        library = {"gtg": run_dynamics, "label_spreading": label_spreading, "label_propagation": label_propagation}
        for method, logits in [(method, None) for method in pipeline.METHODS] + [("gtg", str(lg))]:
            case = f"{method}-{'logits' if logits else 'uniform'}"
            for side in ("cli", "library"):
                (tmp_path / side / case).mkdir(parents=True)
            monkeypatch.chdir(tmp_path / "cli" / case)
            flags = ["--logits", logits] if logits else []
            assert main(["run", "--features", str(fpath), "--method", method, "--anchors-file", str(lpath), *flags]) == 0
            cli_run = json.loads(Path("report.json").read_text())
            monkeypatch.chdir(tmp_path / "library" / case)
            _, library_run = run_pipeline(
                RunConfig(method=method, features_path=str(fpath), anchors_path=str(lpath), logits_path=logits)
            )
            assert cli_run["config"] == library_run["config"], case

            expected = dict.fromkeys(("max_iterations", "tolerance", "alpha", "temperature"))
            if method in library:
                for name, parameter in inspect.signature(library[method]).parameters.items():
                    if name in expected:
                        expected[name] = parameter.default
            elif method == "group_loss":
                expected.update(max_iterations=3, tolerance=0.0)
            if logits:
                expected["temperature"] = inspect.signature(softmax_with_temperature).parameters["temperature"].default
            assert {name: cli_run["config"][name] for name in expected} == expected, case

        monkeypatch.chdir(tmp_path / "cli")
        assert main(["eval", "--features", str(fpath), "--truth", str(lpath)]) == 0
        cli_eval = json.loads((tmp_path / "cli" / "report.json").read_text())
        monkeypatch.chdir(tmp_path / "library")
        _, library_eval = run_eval(str(fpath), str(lpath))
        assert cli_eval["config"] == library_eval["config"]

    def test_method_settings_are_the_library_defaults(self):
        """``METHOD_SETTINGS`` names, for each method, the keyword-only
        settings of the library call that runs it, with that call's
        defaults, and ``DEFAULT_TEMPERATURE`` is the softmax's default.
        ``group_loss`` runs ``run_dynamics`` as the 3-step refinement at
        tolerance 0; ``harmonic_function`` takes no setting."""

        def defaults(function):
            return {name: parameter.default for name, parameter in inspect.signature(function).parameters.items()
                    if parameter.kind is inspect.Parameter.KEYWORD_ONLY}

        library = {"gtg": defaults(run_dynamics), "group_loss": {"max_iterations": 3, "tolerance": 0.0},
                   "label_spreading": defaults(label_spreading), "label_propagation": defaults(label_propagation),
                   "harmonic": defaults(harmonic_function)}
        assert pipeline.METHOD_SETTINGS == library
        assert pipeline.METHOD_SETTINGS["group_loss"].keys() == library["gtg"].keys()
        assert library["harmonic"] == {}
        temperature = inspect.signature(softmax_with_temperature).parameters["temperature"].default
        assert (pipeline.DEFAULT_TEMPERATURE, type(pipeline.DEFAULT_TEMPERATURE)) == (temperature, type(temperature))

    def test_cli_and_library_write_the_same_report(self, blob_dataset, tmp_path):
        """Integral values of the float settings are stored as floats, so a
        library run echoes what the CLI's float options echo."""
        fpath, lpath = str(blob_dataset[0]), str(blob_dataset[1])
        assert main([
            "run", "--features", fpath, "--labels", lpath, "--truth", lpath, "--method", "gtg",
            "--max-iters", "3", "--tol", "0", "--anchor-fraction", "1", "--out-dir", str(tmp_path / "cli"),
        ]) == 0
        run_pipeline(RunConfig(
            method="gtg", features_path=fpath, labels_path=lpath, truth_path=lpath, max_iterations=3,
            tolerance=0, anchor_fraction=1, out_dir=str(tmp_path / "library"),
        ))
        cli_report, library_report = (
            (tmp_path / side / "report.json").read_text().replace(str(tmp_path / side), "OUT")
            for side in ("cli", "library")
        )
        assert cli_report == library_report

    @pytest.mark.parametrize("command, flags, note", [
        ("run", ["--anchor-fraction", "0.1"], "metrics skipped: no truth file supplied"),
        ("run", ["--anchor-fraction", "1", "--truth", "{labels}"], "metric accuracy skipped: no held-out labeled rows"),
        ("eval", ["--truth", "{labels}"], "metric accuracy skipped: needs a predictions file (--labels)"),
        ("eval", ["--truth", "{first}", "--labels", "{second}"],
         "metric accuracy skipped: no row is labeled in both --labels and --truth"),
    ], ids=["run-no-truth", "run-all-anchored", "eval-no-labels", "eval-disjoint-labels"])
    def test_metric_without_scored_rows_is_a_note(self, blob_dataset, tmp_path, command, flags, note):
        """A metric with no row to score is left out of the report with one
        note, and the command exits 0."""
        fpath, lpath, features, labels = blob_dataset
        names = [f"c{v}" for v in labels.labels]
        paths = {"labels": str(lpath), "first": str(tmp_path / "first.csv"), "second": str(tmp_path / "second.csv")}
        write_labels_csv(paths["first"], features.ids[:60], names[:60])
        write_labels_csv(paths["second"], features.ids[60:], names[60:])
        labels_flag = ["--labels", str(lpath)] if command == "run" else []
        args = [command, "--features", str(fpath), *labels_flag, *(flag.format(**paths) for flag in flags)]
        if command == "run":
            args += ["--method", "gtg"]
        assert main([*args, "--metrics", "accuracy", "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metrics"] == {}
        assert report["warnings"]["notes"] == [note]

    @pytest.mark.parametrize("name", ["recall@01", "recall@ 1", "recall@+1", "recall@1_0", "recall@١",
                                      "recall@0", "recall@-1", "recall@"])
    def test_recall_k_has_one_spelling(self, blob_dataset, tmp_path, capsys, name):
        """recall@K takes K as plain ASCII digits with no leading zero, so no
        two names score the same K."""
        fpath, lpath = str(blob_dataset[0]), str(blob_dataset[1])
        message = f"bad metric name {name!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(method="gtg", features_path=fpath, anchor_fraction=0.5, metrics=(name,))
        assert main(["eval", "--features", fpath, "--truth", lpath, "--metrics", name,
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("call, name, value", [
        *(pytest.param("run", name, 2.5, id=name) for name in ("max_iterations", "knn", "seed")),
        pytest.param("run", "seed", None, id="seed-None"),
        pytest.param("eval", "seed", None, id="eval-seed-None"),
        pytest.param("eval", "seed", 1.5, id="eval-seed-1.5"),
    ])
    def test_non_integral_count_is_a_config_error(self, blob_dataset, tmp_path, call, name, value):
        """Raised before any file is read: the eval's input files do not exist."""
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value}$"):
            if call == "run":
                RunConfig(method="gtg", features_path=str(blob_dataset[0]), anchor_fraction=0.5, **{name: value})
            else:
                run_eval(tmp_path / "missing.csv", tmp_path / "missing.csv", seed=value, out_dir=str(tmp_path / "out"))

    @pytest.mark.parametrize("row, exponent", [([1.7e308, -1.7e308, -1.7e308], 1024), ([1e200, -1e200, 0.0], 665)],
                             ids=["centring", "variance"])
    @pytest.mark.parametrize("graph", [[], ["--knn", "2"]], ids=["dense", "knn"])
    def test_a_row_near_the_float64_range_runs_as_its_scaled_row(self, tmp_path, graph, row, exponent):
        """Unscaled, this sample's centring (the first row) or variance (the
        second) would overflow. Both graph builders scale it by 2^-exponent
        first, exactly, so the run writes the predictions of the scaled
        file, with no numpy warning."""
        lpath = tmp_path / "l.csv"
        lpath.write_text("id,label\na,x\nb,y\nc,\nd,\n")
        predictions = []
        for name, values in (("given", row), ("scaled", [v * 2.0**-exponent for v in row])):
            fpath = tmp_path / f"{name}.csv"
            fpath.write_text(f"id,f0,f1,f2\na,3,2,1\nb,{','.join(map(repr, values))}\nc,1,2,3.5\nd,3,2,1.2\n")
            r = self.run_cli(
                "run", "--features", str(fpath), "--labels", str(lpath),
                "--method", "harmonic", "--anchor-fraction", "1.0", *graph,
                "--seed", "0", "--out-dir", str(tmp_path / name),
            )
            assert (r.returncode, r.stderr) == (0, "")
            predictions.append((tmp_path / name / "predictions.csv").read_bytes())
        assert predictions[0] == predictions[1]

    @pytest.mark.parametrize("metric", ["recall@1", "nmi"])
    def test_eval_on_overflowing_features_is_a_numerical_error(self, tmp_path, metric):
        """recall@K's distances and k-means' (for nmi) would overflow on a
        sample near the float64 range; both reject it with one line and no
        numpy warning."""
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1,f2\na,3,2,1\nb,1.7e308,-1.7e308,-1.7e308\nc,1,2,3.5\nd,3,2,1.2\n")
        tpath = tmp_path / "t.csv"
        tpath.write_text("id,label\na,x\nb,y\nc,x\nd,y\n")
        r = self.run_cli(
            "eval", "--features", str(fpath), "--truth", str(tpath), "--metrics", metric,
            "--out-dir", str(tmp_path / "out"),
        )
        assert r.returncode == 3, r.stderr
        assert r.stderr.splitlines() == ["numerical error: feature values too large: squared distances overflow float64"]

    def test_eval_nmi_on_identical_rows(self, tmp_path):
        """nmi's k-means sees one distinct point for its k clusters; eval
        still exits 0 with a finite score and no warning."""
        fpath = tmp_path / "f.csv"
        fpath.write_text("id,f0,f1,f2\n" + "".join(f"{i},1,2,3\n" for i in "abcde"))
        tpath = tmp_path / "t.csv"
        tpath.write_text("id,label\na,x\nb,y\nc,x\nd,y\ne,z\n")
        out = tmp_path / "out"
        args = ["eval", "--features", str(fpath), "--truth", str(tpath), "--metrics", "nmi,recall@1"]
        assert main([*args, "--out-dir", str(out)]) == 0
        assert np.isfinite(json.loads((out / "report.json").read_text())["metrics"]["nmi"])

    @pytest.mark.parametrize("command, names", [
        ("run", "accuracy,accuracy"), ("run", "recall@1,macro_f1,recall@1"), ("eval", "nmi,nmi"),
    ])
    def test_repeated_metric_is_a_config_error(self, tmp_path, capsys, command, names):
        """Raised by RunConfig and run_eval before any file is read: the
        input files do not exist."""
        missing = str(tmp_path / "missing.csv")
        flags = ["--method", "gtg", "--anchor-fraction", "0.5"] if command == "run" else ["--truth", missing]
        argv = [command, "--features", missing, *flags, "--metrics", names, "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: metric {names.split(',')[-1]!r} is named twice\n"
        assert not (tmp_path / "out").exists()

    @staticmethod
    def subparser(command):
        (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return commands.choices[command]

    @pytest.mark.parametrize("command, names", [
        ("run", {field.name for field in dataclasses.fields(RunConfig)}),
        ("eval", set(inspect.signature(run_eval).parameters)),
        ("synth", {field.name for field in dataclasses.fields(BlobSpec)} | {"seed", "out_dir"}),
    ], ids=["run", "eval", "synth"])
    def test_option_dests_are_the_library_names(self, command, names):
        """Each option stores under the RunConfig field, run_eval parameter
        or BlobSpec field it sets, so the CLI passes them on unrenamed."""
        assert {action.dest for action in self.subparser(command)._actions} - {"help"} == names

    def test_synth_defaults_match_the_library(self, tmp_path, monkeypatch):
        """``synth`` with no flags writes BlobSpec()'s data at seed 0 into
        the working directory."""
        monkeypatch.chdir(tmp_path)
        assert main(["synth"]) == 0
        (tmp_path / "lib").mkdir()
        features, labels = make_synthetic(BlobSpec(), 0)
        write_features_csv(tmp_path / "lib" / "features.csv", features)
        write_labels_csv(tmp_path / "lib" / "labels.csv", features.ids, [f"blob{c}" for c in labels.labels])
        for name in ("features.csv", "labels.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name

    @pytest.mark.parametrize("command, flags", [
        (None, ["run", "synth", "eval"]),
        ("run", ["--features", "--labels", "--truth", "--method", "--anchor-fraction", "--anchors-file",
                 "--negative-handling", "--knn", "--logits", "--temperature", "--max-iters", "--tol", "--alpha",
                 "--seed", "--out-dir", "--metrics"]),
        ("eval", ["--features", "--truth", "--labels", "--metrics", "--seed", "--out-dir"]),
        ("synth", ["--blobs", "--per-blob", "--dim", "--separation", "--stddev", "--seed", "--out-dir"]),
    ], ids=["transduct", "run", "eval", "synth"])
    def test_help_lists_every_flag(self, capsys, command, flags):
        """``--help`` works with every default suppressed and lists exactly
        the command's flags (the subcommands for ``transduct`` itself)."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"] if command else ["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        if command:
            assert set(re.findall(r"--[a-z-]+", out)) == {"--help", *flags}
        else:
            assert "{" + ",".join(flags) + "}" in out


class TestUnreachedRows:
    """A vertex with no graph path to an anchor gets the same outcome from
    every method: the uniform row, no predicted label, a place in
    ``warnings.unreached_rows``, one note, and no score."""

    @staticmethod
    def write_dataset(root, constant_row):
        """4 blobs of 60 (d=16, sigma 2.5, seed 3), with 3 anchors in each of
        blob0-blob2 and none in blob3: the clamped k=10 graph has one
        component per blob. A constant row (truth blob0) correlates 0 with
        every sample, so it is isolated in the clamped dense graph."""
        features, labels = make_synthetic(BlobSpec(blobs=4, per_blob=60, dim=16, stddev=2.5), seed=3)
        names = [f"blob{c}" for c in labels.labels]
        if constant_row:
            features = FeatureSet(np.vstack([features.data, np.full(16, 0.5)]), features.ids + ("const",))
            names.append("blob0")
        paths = {name: root / f"{name}.csv" for name in ("features", "labels", "anchors")}
        write_features_csv(paths["features"], features)
        write_labels_csv(paths["labels"], features.ids, names)
        picks = [i for c in range(3) for i in np.flatnonzero(labels.labels == c)[:3]]
        write_labels_csv(paths["anchors"], [features.ids[i] for i in picks], [names[i] for i in picks])
        return paths, picks, names

    @staticmethod
    def read_predictions(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    @pytest.mark.parametrize("knn", [10, None])
    def test_every_method_gives_the_same_outcome(self, tmp_path, knn):
        """--knn 10 leaves blob3 unreached, the dense graph the constant row."""
        paths, picks, names = self.write_dataset(tmp_path, constant_row=knn is None)
        expected = list(range(180, 240)) if knn else [240]
        note = f"samples with no graph path to an anchor: {len(expected)} (uniform rows, no predicted label)"
        knn_flag = ["--knn", str(knn)] if knn else []
        for method in pipeline.METHODS:
            out = tmp_path / method
            assert main([
                "run", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                "--truth", str(paths["labels"]), "--anchors-file", str(paths["anchors"]),
                "--method", method, *knn_flag, "--metrics", "accuracy", "--out-dir", str(out),
            ]) == 0, method
            report = json.loads((out / "report.json").read_text())
            assert report["warnings"]["unreached_rows"] == expected, method
            assert [n for n in report["warnings"]["notes"] if "graph path" in n] == [note], method
            rows = self.read_predictions(out / "predictions.csv")
            for i in expected:
                assert rows[i]["predicted_label"] == "", method
                assert [rows[i][f"p_{j}"] for j in range(4)] == ["0.25"] * 4, method
                assert rows[i]["confidence"] == "0.25", method
            reached = [i for i in range(len(names)) if i not in expected]
            assert all(rows[i]["predicted_label"] for i in reached), method
            # accuracy scores the reached held-out rows only
            held_out = [i for i in reached if i not in picks]
            correct = sum(rows[i]["predicted_label"] == names[i] for i in held_out)
            assert report["metrics"]["accuracy"] == pytest.approx(correct / len(held_out)), method

        # with truth only on unreached rows, no metric has a row to score
        write_labels_csv(tmp_path / "orphan_truth.csv", [rows[i]["id"] for i in expected], [names[i] for i in expected])
        assert main([
            "run", "--features", str(paths["features"]), "--truth", str(tmp_path / "orphan_truth.csv"),
            "--anchors-file", str(paths["anchors"]), "--labels", str(paths["labels"]), "--method", "gtg",
            *knn_flag, "--metrics", "accuracy", "--out-dir", str(tmp_path / "orphan_truth"),
        ]) == 0
        report = json.loads((tmp_path / "orphan_truth" / "report.json").read_text())
        assert report["metrics"] == {}
        assert report["warnings"]["notes"][0] == "metric accuracy skipped: every held-out labeled row is unreached"

        # eval skips the rows the predictions file leaves blank
        assert main([
            "eval", "--features", str(paths["features"]), "--truth", str(paths["labels"]),
            "--labels", str(tmp_path / "gtg" / "predictions.csv"), "--metrics", "accuracy",
            "--out-dir", str(tmp_path / "ev"),
        ]) == 0
        rows = self.read_predictions(tmp_path / "gtg" / "predictions.csv")
        scored = [i for i, row in enumerate(rows) if row["predicted_label"]]
        correct = sum(rows[i]["predicted_label"] == names[i] for i in scored)
        report = json.loads((tmp_path / "ev" / "report.json").read_text())
        assert report["metrics"]["accuracy"] == pytest.approx(correct / len(scored))
        assert len(scored) == len(names) - len(expected)
