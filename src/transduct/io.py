"""CSV and JSON file formats.

All files are UTF-8 comma-separated with a header row and `.` decimal
points. Floats are written with 17 significant digits so a write/read
round trip reproduces float64 values exactly. The JSON report is
pretty-printed with sorted keys; it is the machine interface, the CSVs
are the data interface. Every writer replaces its target atomically.
"""
from __future__ import annotations

import csv
import itertools
import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import FeatureSet
from .errors import DataError, DimensionMismatch, DuplicateId, NonFinite, ParseError


#: Feature rows parsed per ``np.loadtxt`` call: enough to amortise the
#: call, few enough that a block's text and rows stay small next to the
#: parsed matrix.
PARSE_BLOCK_ROWS = 256
#: From the first line with any of these, a features file goes through the
#: ``csv`` module: a quote changes how it splits fields, and ``np.loadtxt``
#: strips the separators \x1c-\x1f around a number where ``float()``
#: rejects it. A ``\r`` is not among them: read with ``newline=""``, it
#: can only end a line, and ``_split_lines`` strips it as the module does.
_CSV_ONLY = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _row_format(width: int) -> str:
    """A %-format for ``width`` comma-separated floats; ``"%.17g" % v`` is
    the string ``format(v, ".17g")`` gives."""
    return ",".join(["%.17g"] * width)


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


def _split_lines(path, fh):
    """Each line of ``fh`` as ``(first field, number of fields, the fields
    after the first)``, or None for a blank line: the records the ``csv``
    module reads. A line is split here, its fields after the first left as
    the text after the first comma, until one holds a character of
    ``_CSV_ONLY``; the ``csv`` module reads that line and the rest of the
    file, and gives those fields as a list. A field the module would reject
    as longer than ``csv.field_size_limit()`` is a ParseError either way."""
    limit = csv.field_size_limit()  # process-global, so read per file
    for before, line in enumerate(fh):
        body = line.rstrip("\r\n")
        if any(map(body.__contains__, _CSV_ONLY)):
            for row in _csv_rows(path, itertools.chain([line], fh), before):
                yield (row[0], len(row), row[1:]) if row else None
            return
        if not body:
            yield None
            continue
        if len(body) > limit and max(map(len, body.split(","))) > limit:
            raise ParseError(path, before + 1, f"field larger than field limit ({limit})")
        first, comma, rest = body.partition(",")
        yield first, rest.count(",") + 2 if comma else 1, rest


def _csv_rows(path, fh, before=0):
    """The rows of ``csv.reader(fh)``, whose first line is line ``before`` + 1
    of ``path``; a row it rejects, such as one with a field over the
    process-global ``csv.field_size_limit()``, is a ParseError naming its line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(path, before + reader.line_num, str(exc)) from None


def _parse_block(path, values, lines) -> np.ndarray:
    """One float64 row per entry of ``values``, each value parsed exactly
    as ``float()`` parses it; a value it rejects is a ParseError naming
    its line.

    An entry is a row's text after the id, or its list of fields once
    ``_split_lines`` has handed the file to the ``csv`` module. That switch
    is one-way, so a block whose last entry is text is all text, and
    ``np.loadtxt`` parses it in one C call that rounds as ``float()``
    does. ``loadtxt`` rejects some text ``float()`` reads, such as ``1_0``
    or non-ASCII digits, and skips a row whose text is blank; such a
    block, and one that holds field lists, is parsed one value at a time.
    """
    if isinstance(values[-1], str):
        try:
            with warnings.catch_warnings():
                # a block of blank rows warns "input contained no data"
                warnings.simplefilter("ignore", UserWarning)
                block = np.loadtxt(values, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if block.shape[0] == len(values):
                return block
    values = [v.split(",") if isinstance(v, str) else v for v in values]
    rows = []
    for fields, lineno in zip(values, lines):
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise ParseError(path, lineno, f"bad float: {exc}") from None
    return np.array(rows, dtype=np.float64)


def _read_records(path, records) -> FeatureSet:
    """The FeatureSet of a header record and the row records after it.

    Errors come in file order: each row's width and id are checked as it
    is read, and the pending block of values is parsed before any later
    error is raised, even undecodable bytes or an unsplittable row further on.
    """
    header = next(records, None)
    if not header or header[0] != "id" or header[1] < 2:
        raise ParseError(path, 1, "expected header 'id,f0,f1,...'")
    width = header[1] - 1
    ids: list[str] = []
    lines: list[int] = []
    seen: set[str] = set()
    pending: list = []
    data = np.empty((0, width))

    def parse_pending():
        if pending:
            values, pending[:] = pending[:], []  # a failed block is not parsed twice
            block = _parse_block(path, values, lines[-len(values):])
            if len(lines) > data.shape[0]:
                # grown in place by an eighth (no view of ``data`` exists):
                # the matrix and its spare rows stay within 1.125x the rows
                # read, and no second copy of it is made
                data.resize((max(len(lines), data.shape[0] * 9 // 8), width), refcheck=False)
            data[len(lines) - len(values):len(lines)] = block

    try:
        for lineno, record in enumerate(records, start=2):
            if record is None:
                continue
            sample_id, fields, values = record
            if fields - 1 != width:
                raise DimensionMismatch(f"{path}:{lineno}: row has {fields - 1} features, header declares {width}")
            if sample_id in seen:
                raise DuplicateId(f"{path}:{lineno}: duplicate id {sample_id!r}")
            seen.add(sample_id)
            ids.append(sample_id)
            lines.append(lineno)
            pending.append(values)
            if len(pending) == PARSE_BLOCK_ROWS:
                parse_pending()
    except (UnicodeDecodeError, DataError):
        parse_pending()
        raise
    parse_pending()
    if not ids:
        raise ParseError(path, 1, "no data rows")
    data.resize((len(ids), width), refcheck=False)
    data.setflags(write=False)  # nothing else holds ``data``: FeatureSet keeps it, uncopied
    try:
        return FeatureSet(data, tuple(ids))
    except NonFinite:
        finite = np.isfinite(data).all(axis=1)
        raise ParseError(path, lines[int(np.argmin(finite))], "value is NaN or infinite") from None


def read_features_csv(path) -> FeatureSet:
    """Parse `id,f0,f1,...` rows into a FeatureSet.

    Each value parses exactly as ``float()`` parses it, and ids may be
    quoted as the ``csv`` module quotes them. A value ``float()`` rejects,
    or a NaN or infinite one, is a ParseError naming its line. The file
    is read once, one line at a time; from the first line with a quote,
    or another character of ``_CSV_ONLY``, the ``csv`` module splits the
    rest.
    """
    path = Path(path)
    with _open_utf8(path) as fh:
        return _read_records(path, _split_lines(path, fh))


def read_label_pairs(path) -> list[tuple[str, str | None]]:
    """Parse `id,label` rows; an empty label field means unlabeled.

    Also accepts the `predicted_label` column of a predictions file so
    pipeline output can be fed back in for evaluation.
    """
    path = Path(path)
    pairs: list[tuple[str, str | None]] = []
    seen: set[str] = set()
    with _open_utf8(path) as fh:
        reader = _csv_rows(path, fh)
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
    row_format = _row_format(features.dim)
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(features.dim)])
        for sample_id, row in zip(features.ids, features.data):
            writer.writerow([sample_id, *(row_format % tuple(row.tolist())).split(",")])


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
    row_format = _row_format(m + 1)
    confidence = assignment.max(axis=1).tolist()
    rows = assignment.tolist()
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "predicted_label", "confidence"] + [f"p_{j}" for j in range(m)])
        for i, sample_id in enumerate(ids):
            text = row_format % (confidence[i], *rows[i])
            writer.writerow([sample_id, predicted_names[i], *text.split(",")])


def write_report_json(path, report: dict) -> None:
    with _atomic_write(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
