"""Output checks applied to every benchmark op.

A ``run`` op passes when its ``predictions.csv`` has one row per sample in
feature-file order, every probability row lies on the simplex within 1e-9,
``confidence`` equals the row maximum, the predicted label is the class of
that maximum, the ``accuracy`` in ``report.json`` equals the accuracy
recomputed here from ``predictions.csv`` and the truth, and the predicted
labels match the digest recorded for the same workload, seed and op.

An ``eval`` op passes when its report holds every requested metric in
[0, 1], recall@K does not fall as K grows, and the values match the ones
recorded for the same workload, seed and op.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

SIMPLEX_TOL = 1e-9
#: Accuracy is a count over a count on both sides; allow only rounding.
ACCURACY_TOL = 1e-12
EVAL_TOL = 1e-12


def label_digest(labels: list[str]) -> str:
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()[:16]


def check_run_op(out_dir, ids, truth, anchor_ids, reference) -> tuple[list[str], float | None, str | None]:
    """Check one ``run`` op's outputs.

    ``truth`` maps sample id to label, ``anchor_ids`` is the set of anchored
    ids (excluded from accuracy), ``reference`` the recorded label digest
    or None when none was recorded. Returns (problems, recomputed
    accuracy, label digest); the op failed when problems is non-empty.
    """
    out_dir = Path(out_dir)
    try:
        with open(out_dir / "predictions.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None, None

    problems = []
    classes = report.get("classes", [])
    if not rows or rows[0][:3] != ["id", "predicted_label", "confidence"] or len(rows[0]) != 3 + len(classes):
        return [f"bad predictions header {rows[0][:4] if rows else []}"], None, None
    body = rows[1:]
    if [r[0] for r in body] != list(ids):
        return [f"predictions have {len(body)} rows, expected one per sample in order"], None, None

    labels = []
    for row in body:
        try:
            sample_id, label, confidence = row[0], row[1], float(row[2])
            probs = [float(v) for v in row[3:]]
        except (IndexError, ValueError):
            return [f"malformed predictions row {row[:3]}"], None, None
        if len(probs) != len(classes):
            return [f"row {sample_id} has {len(probs)} probabilities for {len(classes)} classes"], None, None
        if not all(math.isfinite(p) and p >= -SIMPLEX_TOL for p in probs) or abs(math.fsum(probs) - 1.0) > SIMPLEX_TOL:
            problems.append(f"row {sample_id} is off the simplex")
        top = max(probs)
        if confidence != top:
            problems.append(f"row {sample_id}: confidence {confidence!r} != row max {top!r}")
        if label != classes[probs.index(top)]:
            problems.append(f"row {sample_id}: label {label!r} is not the argmax class")
        labels.append(label)

    held_out = [i for i, sid in enumerate(ids) if sid not in anchor_ids]
    hits = sum(labels[i] == truth[ids[i]] for i in held_out)
    accuracy = hits / len(held_out)
    reported = report.get("metrics", {}).get("accuracy")
    if reported is None or abs(reported - accuracy) > ACCURACY_TOL:
        problems.append(f"report accuracy {reported!r} != recomputed {accuracy!r}")

    digest = label_digest(labels)
    if reference is not None and digest != reference:
        problems.append(f"predicted labels differ from the reference ({digest} != {reference})")
    return problems[:5], accuracy, digest


def check_eval_op(out_dir, names, reference) -> tuple[list[str], dict | None]:
    """Check one ``eval`` op's report; returns (problems, metric values)."""
    try:
        report = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    values = report.get("metrics", {})
    problems = [f"missing metric {n}" for n in names if n not in values]
    if problems:
        return problems, None
    problems += [f"{n} = {values[n]!r} outside [0, 1]" for n in names if not 0.0 <= values[n] <= 1.0]
    recalls = [values[n] for n in sorted((n for n in names if n.startswith("recall@")), key=lambda n: int(n[7:]))]
    if recalls != sorted(recalls):
        problems.append(f"recall@K falls as K grows: {recalls}")
    if reference is not None:
        problems += [
            f"{n} = {values[n]!r} differs from the reference {reference[n]!r}"
            for n in names
            if abs(values[n] - reference[n]) > EVAL_TOL
        ]
    return problems, {n: values[n] for n in names}
