#!/usr/bin/env python3
"""Output matrix: the predictions.csv and report.json of every method,
dense and with --knn 7, under both negative handlings, plus the
report.json of one `eval` of recall@K and nmi, on synthetic sets of
n=300, 1200 and 4000 samples. Beside the --knn 7 runs of each negative
handling it writes graph.sha256: the SHA-256 of the data, indices and
indptr arrays of the `knn_graph` those runs build, so the graph's bits
are compared too. One more dense `gtg` run per size reads a copy of the
set in which one id holds a comma, so the files quote it and the reader
splits them with the csv module from that row on.

Every run is written under OUT by the `transduct` CLI of the checkout
this script belongs to, and the graphs by its `knn_graph`. All paths a
run is given are relative to OUT, so the paths a report records are the
same wherever OUT is. Run it from two checkouts at the same
TRANSDUCT_THREADS and compare the trees with `diff -r` to show that a
change keeps every output byte-identical.

Usage: TRANSDUCT_THREADS=2 python scripts/output_matrix.py OUT
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SIZES = (300, 1200, 4000)
KNN = 7
GRAPHS = {"dense": [], f"knn{KNN}": ["--knn", str(KNN)]}
SRC = Path(__file__).resolve().parents[1] / "src"
# transduct applies TRANSDUCT_THREADS when first imported, before numpy loads BLAS
sys.path.insert(0, str(SRC))
from transduct.io import read_features_csv  # noqa: E402
from transduct.pipeline import EVAL_DEFAULT_METRICS, METHODS  # noqa: E402
from transduct.similarity import NEGATIVE_MODES, knn_graph  # noqa: E402


def cli(out: Path, *args: str) -> None:
    """One `transduct` command run in ``out`` on this checkout's source; exits on failure."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "transduct.cli", *args], cwd=out, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit(f"transduct {' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")


def write_graph_digest(out: Path, features: str, mode: str, runs: str) -> None:
    """The SHA-256 of each CSR array of ``knn_graph(features, KNN, mode)``,
    one ``name digest`` line per array, into ``runs/graph.sha256``."""
    graph = knn_graph(read_features_csv(out / features), KNN, mode)[0]
    lines = [f"{name} {hashlib.sha256(getattr(graph, name).tobytes()).hexdigest()}\n"
             for name in ("data", "indices", "indptr")]
    (out / runs / "graph.sha256").write_text("".join(lines))


def write_quoted_copy(out: Path, data: str, n: int) -> str:
    """A copy of the set in ``data`` whose sample n/2 has a comma in its
    id, quoted as the csv module quotes it; returns the copy's directory."""
    copy = f"{data}-quoted"
    (out / copy).mkdir(parents=True, exist_ok=True)
    sample = f"s{n // 2:05d}"
    row, quoted = f"\n{sample},".encode(), f'\n"{sample},q",'.encode()
    for name in ("features.csv", "labels.csv"):
        text = (out / data / name).read_bytes()
        assert text.count(row) == 1, f"{data}/{name} has no single row of {sample}"
        (out / copy / name).write_bytes(text.replace(row, quoted))
    return copy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write the data and the runs into")
    out = parser.parse_args().out
    out.mkdir(parents=True, exist_ok=True)
    for n in SIZES:
        data = f"data/n{n}"
        cli(out, "synth", "--blobs", "4", "--per-blob", str(n // 4), "--dim", "64", "--seed", "0", "--out-dir", data)
        for graph, graph_args in GRAPHS.items():
            for mode in NEGATIVE_MODES:
                for method in METHODS:
                    run = f"runs/n{n}/{graph}/{mode}/{method}"
                    print(run, flush=True)
                    cli(out, "run", "--features", f"{data}/features.csv", "--labels", f"{data}/labels.csv",
                        "--truth", f"{data}/labels.csv", "--method", method, "--anchor-fraction", "0.05",
                        "--negative-handling", mode, *graph_args, "--out-dir", run)
                if graph_args:
                    write_graph_digest(out, f"{data}/features.csv", mode, f"runs/n{n}/{graph}/{mode}")
        quoted = write_quoted_copy(out, data, n)
        run = f"runs/n{n}/quoted-id/gtg"
        print(run, flush=True)
        cli(out, "run", "--features", f"{quoted}/features.csv", "--labels", f"{quoted}/labels.csv",
            "--truth", f"{quoted}/labels.csv", "--method", "gtg", "--anchor-fraction", "0.05", "--out-dir", run)
        run = f"runs/n{n}/eval"
        print(run, flush=True)
        cli(out, "eval", "--features", f"{data}/features.csv", "--truth", f"{data}/labels.csv",
            "--metrics", ",".join(EVAL_DEFAULT_METRICS), "--out-dir", run)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
