"""What the package imports, and what it exports.

scipy loads only for a long loop over a k-NN graph or a sparse solve.
Importing scipy.sparse costs 0.20-0.23 s and 20 MiB (scipy 1.17.1 on a
2-core x86-64 host, after importing ``transduct.cli``), more than the
rest of the package's import. A dense run of any method and ``eval`` never touch a sparse
graph, and a ``--knn`` run builds and multiplies its ``core.CsrGraph``
with numpy until the products run on it pass ``core.CSR_NUMPY_BUDGET``,
so none of them may load it; a module level ``from scipy ...`` anywhere
in the package fails these tests. Its linalg submodule adds 0.08-0.09 s
and 10 MiB more; only the direct fallback of the harmonic solve loads
it, so a ``--knn`` run does not, even on scipy's kernel.

Every name in ``transduct.__all__`` is used by the package or a script,
so no public function exists only for the tests to call.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transduct
from transduct.core import CSR_NUMPY_BUDGET
from transduct.io import read_features_csv
from transduct.pipeline import METHODS
from transduct.similarity import knn_graph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE = """
import json, sys
from transduct import core
from transduct.cli import main
budget = json.loads(sys.argv[2])
if budget is not None:
    core.CSR_NUMPY_BUDGET = budget
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"transduct {' '.join(argv)} failed")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(*commands, budget=None) -> list[str]:
    """The scipy modules loaded in a fresh interpreter after importing
    ``transduct.cli`` and running each CLI command in turn, with
    ``core.CSR_NUMPY_BUDGET`` set to ``budget`` unless it is None."""
    env = dict(os.environ, PYTHONPATH=str(SRC), TRANSDUCT_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands), json.dumps(budget)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def synth(out, blobs, per_blob):
    subprocess.run(
        [sys.executable, "-m", "transduct.cli", "synth", "--blobs", str(blobs), "--per-blob", str(per_blob),
         "--dim", "8", "--seed", "1", "--out-dir", str(out)],
        check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    return out


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    return synth(tmp_path_factory.mktemp("data"), 3, 20)


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


def test_knn_runs_below_the_budget_load_no_scipy(data, tmp_path):
    runs = [run_args(data, tmp_path / method, "--knn", "5", method=method) for method in METHODS]
    assert scipy_modules_after(*runs) == []


def test_knn_run_over_the_budget_loads_scipy_sparse(tmp_path):
    """label_propagation's 1000 steps (``--tol 0`` runs all of them) on a
    1000-sample k=10 graph pass the budget: the rest of its loop runs on
    scipy's kernel, which needs no linalg. gtg's and harmonic's loops on
    the same graph stay under it."""
    data = synth(tmp_path / "data", 4, 250)
    graph = knn_graph(read_features_csv(data / "features.csv"), 10)[0]
    loaded = scipy_modules_after(
        run_args(data, tmp_path / "run", "--knn", "10", "--tol", "0", method="label_propagation"))
    steps = json.loads((tmp_path / "run" / "report.json").read_text())["iterations_used"]
    assert steps * graph.nnz * 4 > CSR_NUMPY_BUDGET
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.linalg" not in loaded
    short = [run_args(data, tmp_path / method, "--knn", "10", method=method) for method in ("gtg", "harmonic")]
    assert scipy_modules_after(*short) == []


def test_knn_harmonic_run_loads_no_sparse_linalg(data, tmp_path):
    """The conjugate-gradient solve needs only the CSR product, on
    scipy's kernel too (a budget of 0 sends every loop there)."""
    loaded = scipy_modules_after(run_args(data, tmp_path / "run", "--knn", "5", method="harmonic"), budget=0)
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.linalg" not in loaded


def referenced_names() -> set[str]:
    """Every name the package's modules other than ``__init__.py`` and
    the scripts refer to: names, attributes, imported names and the
    modules of ``from`` imports."""
    paths = [p for p in sorted((SRC / "transduct").glob("*.py")) if p.name != "__init__.py"]
    names = set()
    for path in [*paths, *sorted((ROOT / "scripts").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
    return names


def test_every_exported_name_is_used_outside_the_tests():
    unused = set(transduct.__all__) - referenced_names()
    assert sorted(unused) == []
