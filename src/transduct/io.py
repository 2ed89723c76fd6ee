"""CSV and JSON file formats.

All files are UTF-8 comma-separated with a header row and `.` decimal
points. Floats are written with 17 significant digits so a write/read
round trip reproduces float64 values exactly. The JSON report is
pretty-printed with sorted keys; it is the machine interface, the CSVs
are the data interface. Every writer replaces its target atomically.
"""
from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import FeatureSet
from .errors import DataError, DimensionMismatch, DuplicateId, ParseError


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@contextmanager
def _open_utf8(path):
    """A text file opened for reading as UTF-8; bytes that do not decode
    raise a DataError that names the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def _atomic_write(path, newline=None):
    """A text file opened for writing as UTF-8 that replaces ``path`` only
    once it is complete.

    The text goes to a temporary file in the target's directory, which is
    renamed over ``path`` when the block ends. If the block raises, the
    temporary file is removed and ``path`` keeps its previous bytes, so
    an interrupted run never leaves a half-written output.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_features_csv(path) -> FeatureSet:
    """Parse `id,f0,f1,...` rows into a FeatureSet; a NaN or infinite
    value is a ParseError naming its line."""
    path = Path(path)
    ids: list[str] = []
    rows: list[list[float]] = []
    lines: list[int] = []
    seen: set[str] = set()
    with _open_utf8(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id" or len(header) < 2:
            raise ParseError(path, 1, "expected header 'id,f0,f1,...'")
        width = len(header) - 1
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) - 1 != width:
                raise DimensionMismatch(
                    f"{path}:{lineno}: row has {len(row) - 1} features, header declares {width}"
                )
            sample_id = row[0]
            if sample_id in seen:
                raise DuplicateId(f"{path}:{lineno}: duplicate id {sample_id!r}")
            seen.add(sample_id)
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ParseError(path, lineno, f"bad float: {exc}") from None
            ids.append(sample_id)
            lines.append(lineno)
    if not rows:
        raise ParseError(path, 1, "no data rows")
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ParseError(path, lines[int(np.argmin(finite))], "value is NaN or infinite")
    return FeatureSet(data, tuple(ids))


def read_label_pairs(path) -> list[tuple[str, str | None]]:
    """Parse `id,label` rows; an empty label field means unlabeled.

    Also accepts the `predicted_label` column of a predictions file so
    pipeline output can be fed back in for evaluation.
    """
    path = Path(path)
    pairs: list[tuple[str, str | None]] = []
    seen: set[str] = set()
    with _open_utf8(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id" or len(header) < 2:
            raise ParseError(path, 1, "expected header 'id,label'")
        if header[1] not in ("label", "predicted_label"):
            raise ParseError(path, 1, f"expected a 'label' column, got {header[1]!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ParseError(path, lineno, "expected 'id,label'")
            sample_id = row[0]
            if sample_id in seen:
                raise DuplicateId(f"{path}:{lineno}: duplicate id {sample_id!r}")
            seen.add(sample_id)
            label = row[1]
            pairs.append((sample_id, label if label != "" else None))
    return pairs


def write_features_csv(path, features: FeatureSet) -> None:
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(features.dim)])
        for i, sample_id in enumerate(features.ids):
            writer.writerow([sample_id] + [_fmt(v) for v in features.data[i]])


def write_labels_csv(path, ids, label_names) -> None:
    """`id,label` rows; None entries are written as an empty field."""
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for sample_id, name in zip(ids, label_names):
            writer.writerow([sample_id, "" if name is None else name])


def write_predictions_csv(path, ids, predicted_names, assignment) -> None:
    """`id,predicted_label,confidence,p_0,...,p_{m-1}` rows.

    Confidence is the row maximum of the final assignment.
    """
    assignment = np.asarray(assignment, dtype=np.float64)
    m = assignment.shape[1]
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "predicted_label", "confidence"] + [f"p_{j}" for j in range(m)])
        for i, sample_id in enumerate(ids):
            row = [sample_id, predicted_names[i], _fmt(assignment[i].max())]
            row += [_fmt(v) for v in assignment[i]]
            writer.writerow(row)


def write_report_json(path, report: dict) -> None:
    with _atomic_write(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
