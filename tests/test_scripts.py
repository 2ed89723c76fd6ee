"""The scripts under ``scripts/``, run in-process as ``python scripts/NAME.py``."""
import runpy
import sys
from pathlib import Path
from unittest import mock

import pytest

from transduct import io
from transduct.pipeline import METHODS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_anchor_sweep_runs_every_method_on_one_parse(capsys):
    """Each fraction gets a row of accuracies, one per method, and every
    run after the first reuses the first one's parse of the features file."""
    argv = ["anchor_sweep.py", "--per-blob", "20", "--fractions", "0.1", "0.2"]
    with mock.patch.object(sys, "argv", argv), \
            mock.patch.object(io, "_read_records", wraps=io._read_records) as parse, \
            pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / "anchor_sweep.py"), run_name="__main__")
    assert info.value.code == 0
    assert parse.call_count == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["anchors", *METHODS]
    rows = [line.split() for line in lines[2:4]]
    assert [row[0] for row in rows] == ["10.00%", "20.00%"]
    assert all(len(row) == 1 + len(METHODS) and all(0 <= float(v) <= 1 for v in row[1:]) for row in rows)
    assert lines[-1].startswith("3 blobs x 20, dim 16")
