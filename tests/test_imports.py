"""What the package imports, and what it exports.

scipy loads only when a sparse graph is built or solved. Importing
scipy.sparse costs about 0.2 s and 22 MB, more than the rest of the
package's import. A dense run of any method and ``eval`` never touch a
sparse object, so they must not load it; a module level
``from scipy ...`` anywhere in the package fails these tests. Its linalg
submodule adds up to 0.15 s and 10 MB more; only the direct fallback of
the harmonic solve loads it, so a ``--knn`` run does not.

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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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


def test_knn_harmonic_run_loads_no_sparse_linalg(data, tmp_path):
    """The conjugate-gradient solve needs only the CSR product."""
    loaded = scipy_modules_after(run_args(data, tmp_path / "run", "--knn", "5", method="harmonic"))
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
