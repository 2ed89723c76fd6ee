"""scipy loads only when a sparse graph is built or solved.

Importing scipy.sparse and its csgraph and linalg submodules costs about
0.3 s, more than the rest of the package's import. A dense run of any
method and ``eval`` never touch a sparse object, so they must not load
it; a module level ``from scipy ...`` anywhere in the package fails these
tests.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
from transduct.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"transduct {' '.join(argv)} failed")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(*commands) -> list[str]:
    """The scipy modules loaded in a fresh interpreter after importing
    ``transduct.cli`` and running each CLI command in turn."""
    env = dict(os.environ, PYTHONPATH=str(SRC), TRANSDUCT_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    subprocess.run(
        [sys.executable, "-m", "transduct.cli", "synth", "--blobs", "3", "--per-blob", "20",
         "--dim", "8", "--seed", "1", "--out-dir", str(out)],
        check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    return out


METHODS = ["gtg", "group_loss", "label_spreading", "label_propagation", "harmonic"]


def run_args(data, out, *extra, method="gtg"):
    return ["run", "--features", str(data / "features.csv"), "--labels", str(data / "labels.csv"),
            "--truth", str(data / "labels.csv"), "--method", method, "--anchor-fraction", "0.1",
            "--metrics", "accuracy,nmi,recall@1", "--out-dir", str(out), *extra]


def test_import_loads_no_scipy():
    assert scipy_modules_after() == []


def test_dense_run_and_eval_load_no_scipy(data, tmp_path):
    runs = [run_args(data, tmp_path / method, method=method) for method in METHODS]
    eval_args = ["eval", "--features", str(data / "features.csv"), "--truth", str(data / "labels.csv"),
                 "--labels", str(tmp_path / "gtg" / "predictions.csv"), "--out-dir", str(tmp_path / "ev"),
                 "--metrics", "accuracy,macro_f1,nmi,recall@1,recall@4"]
    assert scipy_modules_after(*runs, eval_args) == []


def test_knn_run_loads_scipy_sparse(data, tmp_path):
    assert "scipy.sparse" in scipy_modules_after(run_args(data, tmp_path / "run", "--knn", "5"))
