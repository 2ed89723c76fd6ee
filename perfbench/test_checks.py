"""The output check must count a damaged op as failed.

Runs one small ``transduct run`` op through the benchmark's own spawn and
check path, then damages its predictions.csv (a changed label, a broken
row sum) and expects the check to flag the op each time.
"""
import csv
import sys

import pytest

from run import ENTRY, Op, OpResult, Workload, check_op, child_env, op_args, spawn, write_inputs

OP = Op("run-gtg", "gtg", None, "accuracy", 0.1)
TINY = Workload("cli", 2, 20, 8, 1.0, (OP,))


@pytest.fixture(scope="module")
def op_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("op")
    inputs = write_inputs(TINY, 3, work / "data")
    out_dir = work / "out"
    out_dir.mkdir()
    argv = [sys.executable, "-c", ENTRY, *op_args(OP, inputs, 3, out_dir)]
    code, _, _ = spawn(argv, child_env(), work / "log.txt")
    assert code == 0, (work / "log.txt").read_text()
    first = OpResult(OP.name, 0.0)
    check_op(first, OP, inputs, out_dir, None)
    assert not first.failed, first.problems
    return inputs, out_dir, {OP.name: first.digest}


def _checked(op_run) -> OpResult:
    inputs, out_dir, reference = op_run
    result = OpResult(OP.name, 0.0)
    check_op(result, OP, inputs, out_dir, reference)
    return result


def _edit_row(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows[1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def test_intact_op_passes_against_its_reference(op_run):
    result = _checked(op_run)
    assert not result.failed, result.problems
    assert result.accuracy is not None


def test_changed_label_counts_as_failed(op_run):
    _, out_dir, _ = op_run
    path = out_dir / "predictions.csv"
    saved = path.read_bytes()

    def relabel(row):
        row[1] = "blob1" if row[1] == "blob0" else "blob0"

    _edit_row(path, relabel)
    try:
        result = _checked(op_run)
    finally:
        path.write_bytes(saved)
    assert result.failed
    assert any("reference" in p for p in result.problems)


def test_broken_row_sum_counts_as_failed(op_run):
    _, out_dir, _ = op_run
    path = out_dir / "predictions.csv"
    saved = path.read_bytes()

    def unbalance(row):
        row[3] = repr(float(row[3]) + 1e-6)

    _edit_row(path, unbalance)
    try:
        result = _checked(op_run)
    finally:
        path.write_bytes(saved)
    assert result.failed
    assert any("simplex" in p for p in result.problems)
