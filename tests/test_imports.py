"""What the package imports, and what it exports.

scipy's packages load only for a sparse solve. Importing scipy.sparse
costs 0.13 s and 22 MiB (scipy 1.17.1 on a 2-core x86-64 host, after
importing ``transduct.cli``), more than the rest of the package's
import. A dense run of any method and ``eval`` never touch a sparse
graph, and a ``--knn`` run multiplies its ``core.CsrGraph`` with scipy's
compiled kernel, which ``core._csr_matvecs`` loads from its one extension
file without running any scipy package's init; so none of them may load
a scipy module, and a module level ``from scipy ...`` anywhere in the
package fails these tests. Only the direct fallback of the harmonic
solve loads ``scipy.sparse`` and its linalg submodule.

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
from transduct.pipeline import METHODS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC), TRANSDUCT_THREADS="1")

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
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=ENV, timeout=120,
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


def test_knn_runs_load_no_scipy(data, tmp_path):
    """Every method with ``--knn``, and label_propagation's 1000 steps
    (``--tol 0`` runs all of them) on a 1000-sample k=10 graph, run on
    the compiled kernel without loading a scipy module."""
    large = synth(tmp_path / "large", 4, 250)
    runs = [run_args(data, tmp_path / method, "--knn", "5", method=method) for method in METHODS]
    long = run_args(large, tmp_path / "long", "--knn", "10", "--tol", "0", method="label_propagation")
    assert scipy_modules_after(*runs, long) == []
    assert json.loads((tmp_path / "long" / "report.json").read_text())["iterations_used"] == 1000


KERNEL_PROBE = """
import sys
import numpy as np
from transduct.core import CsrGraph, _csr_matvecs
rng = np.random.default_rng(0)
rows = np.sort(rng.integers(0, 40, size=300))
graph = CsrGraph(np.r_[0, np.cumsum(np.bincount(rows, minlength=40))], rng.integers(0, 40, size=300),
                 rng.uniform(size=300))
x = rng.normal(size=(40, 3))
first = graph @ x
assert "scipy.sparse._sparsetools" not in sys.modules
from scipy import sparse
assert sys.modules["scipy.sparse._sparsetools"] is sparse._sparsetools
assert sparse._sparsetools.csr_matvecs is _csr_matvecs()
assert (graph.to_scipy() @ x).tobytes() == first.tobytes() == (graph @ x).tobytes()
"""


def test_scipy_sparse_loaded_after_a_product_binds_its_own_kernel_module():
    """The kernel load leaves no trace in ``sys.modules``: a later
    ``from scipy import sparse`` binds its own ``_sparsetools``, which
    holds the same function, and ``to_scipy() @ x`` has the bits of
    ``graph @ x``."""
    result = subprocess.run([sys.executable, "-c", KERNEL_PROBE], capture_output=True, text=True, env=ENV,
                            timeout=120)
    assert result.returncode == 0, result.stderr


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
