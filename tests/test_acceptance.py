"""Acceptance suite: one test per release gate, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines. Every tolerance below is pinned; nothing is calibrated at runtime.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import sparse

from transduct import (
    BlobSpec,
    LabelSet,
    RunConfig,
    harmonic_function,
    inject_anchors,
    label_propagation,
    label_spreading,
    macro_f1,
    make_synthetic,
    nmi,
    pearson_matrix,
    recall_at_k,
    run_dynamics,
    run_pipeline,
    true_centroids,
    uniform_prior,
)
from transduct.io import write_features_csv, write_labels_csv

from oracles import label_spreading_closed_form, replicator_step_elementwise


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _random_trials(count=1000, seed=20260810):
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(count):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 11))
        w = rng.uniform(0, 1, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0)
        x = rng.dirichlet(np.ones(m), size=n)
        trials.append((w, x))
    return trials


def _random_connected_graph(rng, n):
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        w[a, b] = w[b, a] = rng.uniform(0.2, 1.0)
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            weight = rng.uniform(0.2, 1.0)
            w[i, j] = w[j, i] = weight
    return w


TRIALS = _random_trials()


def test_simplex_preservation():
    """1000 random instances: one replicator step keeps every row on the
    simplex (sums within 1e-9, entries in [0, 1]) in under 5 seconds."""
    start = time.perf_counter()
    ok = True
    for w, x in TRIALS:
        out, _ = run_dynamics(w, x, max_iterations=1, tolerance=0.0)
        if not (np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9) and out.min() >= 0 and out.max() <= 1.0):
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report("simplex preservation", ok and elapsed < 5.0, f"1000 trials in {elapsed:.2f}s")


def test_consistency_monotonicity():
    """Same trials, one 50-step run each: the consistency functional in
    its trace never drops by more than 1e-12, in under 10 seconds."""
    start = time.perf_counter()
    worst = 0.0
    for w, x in TRIALS:
        _, trace = run_dynamics(w, x, max_iterations=50, tolerance=0.0)
        worst = min(worst, float(np.diff(trace.functional_values).min()))
    elapsed = time.perf_counter() - start
    _report(
        "consistency monotonicity",
        worst >= -1e-12 and elapsed < 10.0,
        f"worst step delta {worst:.2e}, {elapsed:.2f}s",
    )


def test_form_equivalence():
    """One step of ``run_dynamics`` (the matrix form) and the element-wise
    update agree within 1e-12 on 100 random instances."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 26))
        m = int(rng.integers(2, 8))
        w = rng.uniform(0, 1, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0)
        x = rng.dirichlet(np.ones(m), size=n)
        fast, _ = run_dynamics(w, x, max_iterations=1, tolerance=0.0)
        slow, _ = replicator_step_elementwise(w, x)
        worst = max(worst, float(np.abs(fast - slow).max()))
    _report("update form equivalence", worst <= 1e-12, f"max abs diff {worst:.2e}")


def test_anchor_fixed_point():
    """Anchored one-hot rows come out of 100 steps exactly as they went in,
    on the dense graph and on its CSR form: zero entries stay exactly zero
    under the multiplicative update and the class entry is divided by
    itself."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        n, m = 30, 5
        w = rng.uniform(0.01, 1, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0)
        vector = np.full(n, -1)
        for i in range(0, n, 3):
            vector[i] = rng.integers(m)
        anchors = LabelSet(m, vector)
        x0 = inject_anchors(rng.dirichlet(np.ones(m), size=n), anchors)
        rows = anchors.labeled_indices()
        for graph in (w, sparse.csr_array(w)):
            x, trace = run_dynamics(graph, x0, max_iterations=100, tolerance=0.0)
            assert trace.iterations_used == 100
            worst = max(worst, float(np.abs(x[rows] - x0[rows]).max()))
    _report("anchor fixed point", worst == 0.0, f"max anchored drift {worst:.2e}, dense and CSR")


def test_three_node_hand_iteration():
    """The 3-node instance reproduces the hand-iterated trajectory."""
    w = np.array([[0, 0.9, 0.1], [0.9, 0, 0.1], [0.1, 0.1, 0]])
    anchors = LabelSet(2, [0, -1, 1])
    x0 = inject_anchors(uniform_prior(3, 2), anchors)
    x1, _ = run_dynamics(w, x0, max_iterations=1, tolerance=0.0)
    x2, _ = run_dynamics(w, x0, max_iterations=2, tolerance=0.0)
    err1 = float(np.abs(x1[1] - np.array([0.9, 0.1])).max())
    err2 = float(np.abs(x2[1] - np.array([0.9878048780487805, 0.012195121951219513])).max())
    _report(
        "three-node hand iteration",
        err1 <= 1e-6 and err2 <= 1e-6,
        f"step1 err {err1:.2e}, step2 err {err2:.2e}",
    )


def test_blob_experiment(tmp_path):
    """Seeded 3-blob run (100 points each, d=64, separation 6, sigma 1,
    seed 7, 2% stratified anchors): nearest-true-centroid reference must
    reach 0.99 and the propagated pseudo-labels 0.95, within 2 seconds.

    Why d=64: Pearson correlation of two 2-d samples is exactly +-1, so
    at d=2 the graph is two cliques split by sign(f0 - f1) and every
    method caps near 2/3 (test_pipeline.py checks that the run reports
    this). At low d two random centroids can also correlate strongly;
    the consistency functional then prefers merging their classes, and
    gtg ascends to that merge (d=16, seed 3: centroid correlation 0.55,
    gtg 0.67). Over seeds 0-39 of this spec gtg first reaches 0.95 on
    every seed at d=64, the smallest such d in {4, 8, 16, 32, 64}.
    """
    spec = BlobSpec(blobs=3, per_blob=100, dim=64, separation=6.0, stddev=1.0)
    features, labels = make_synthetic(spec, seed=7)
    centroids = true_centroids(spec, seed=7)

    # independent reference: nearest generating centroid
    d2 = np.sum((features.data[:, None, :] - centroids[None]) ** 2, axis=2)
    oracle_acc = float(np.mean(np.argmin(d2, axis=1) == labels.labels))

    fpath = tmp_path / "features.csv"
    lpath = tmp_path / "labels.csv"
    write_features_csv(fpath, features)
    write_labels_csv(lpath, features.ids, [f"blob{v}" for v in labels.labels])

    start = time.perf_counter()
    cfg = RunConfig(
        method="gtg",
        features_path=str(fpath),
        labels_path=str(lpath),
        truth_path=str(lpath),
        anchor_fraction=0.02,
        seed=7,
        out_dir=str(tmp_path / "out"),
    )
    predictions_path, report = run_pipeline(cfg)
    elapsed = time.perf_counter() - start

    rows = predictions_path.read_text().strip().splitlines()[1:]
    predicted = np.array([int(line.split(",")[1].removeprefix("blob")) for line in rows])
    gtg_acc = float(np.mean(predicted == labels.labels))

    _report(
        "synthetic blob experiment",
        oracle_acc >= 0.99 and gtg_acc >= 0.95 and elapsed < 2.0,
        f"oracle {oracle_acc:.4f}, propagated {gtg_acc:.4f}, {elapsed:.2f}s",
    )


def test_baseline_oracle_equivalence():
    """On 50 random connected graphs (n <= 20): iterative spreading vs its
    closed form within 1e-8, propagation vs harmonic within 1e-6."""
    rng = np.random.default_rng(404)
    loop = dict(tolerance=1e-13, max_iterations=100_000)
    worst_ls = worst_lp = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        w = _random_connected_graph(rng, n)
        vec = np.full(n, -1)
        vec[rng.choice(n, size=min(3, n), replace=False)] = [0, 1, 2][: min(3, n)]
        labels = LabelSet(3, vec)
        ls, _ = label_spreading(w, labels, alpha=0.9, **loop)
        oracle = label_spreading_closed_form(w, labels, alpha=0.9)
        worst_ls = max(worst_ls, float(np.abs(ls * oracle.sum(axis=1, keepdims=True) - oracle).max()))
        lp, lp_meta = label_propagation(w, labels, **loop)
        assert lp_meta["converged"]
        worst_lp = max(worst_lp, float(np.abs(lp - harmonic_function(w, labels)).max()))
    _report(
        "baseline oracle equivalence",
        worst_ls <= 1e-8 and worst_lp <= 1e-6,
        f"spreading diff {worst_ls:.2e}, propagation diff {worst_lp:.2e}",
    )


def test_metric_sanity():
    """NMI identities, macro-F1 hand values within 1e-12, recall@K
    monotone over 100 random instances."""
    ok = nmi([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0
    rng = np.random.default_rng(5)
    a = rng.integers(0, 4, size=30)
    b = rng.integers(0, 3, size=30)
    perm = rng.permutation(4)
    ok &= nmi(a, b) == nmi(perm[a], b)
    ok &= abs(nmi([0, 0, 1, 1], [0, 1, 0, 1])) <= 1e-12
    ok &= abs(macro_f1([0, 1, 2], [0, 1, 2], 3) - 1.0) <= 1e-12
    ok &= abs(macro_f1([0, 0, 1, 1], [0, 1, 0, 1], 2) - 0.5) <= 1e-12
    ok &= abs(macro_f1([0, 0], [0, 1], 2) - 1 / 3) <= 1e-12
    monotone = True
    for _ in range(100):
        n = int(rng.integers(5, 30))
        feats = rng.normal(size=(n, 3))
        truth = rng.integers(0, 3, size=n)
        values = recall_at_k(feats, truth, list(range(1, n)))
        series = [values[k] for k in range(1, n)]
        monotone &= all(later >= earlier for earlier, later in zip(series, series[1:]))
    _report("metric sanity", bool(ok and monotone))


def test_pearson_properties():
    """Entries in [-1, 1], affine invariance within 1e-9, naive two-pass
    oracle agreement within 1e-12, over 100 random feature sets."""
    rng = np.random.default_rng(31)
    worst_range = worst_affine = worst_oracle = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 11))
        data = rng.normal(size=(n, d)) * rng.uniform(0.5, 20)
        w, _ = pearson_matrix(data)
        worst_range = max(worst_range, float(np.abs(w).max()) - 1.0)
        a = rng.uniform(0.1, 10.0, size=(n, 1))
        b = rng.uniform(-5.0, 5.0, size=(n, 1))
        w2, _ = pearson_matrix(a * data + b)
        worst_affine = max(worst_affine, float(np.abs(w - w2).max()))
        oracle = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                u, v = data[i], data[j]
                cov = np.mean((u - u.mean()) * (v - v.mean()))
                oracle[i, j] = cov / np.sqrt(np.mean((u - u.mean()) ** 2) * np.mean((v - v.mean()) ** 2))
        worst_oracle = max(worst_oracle, float(np.abs(w - oracle).max()))
    _report(
        "pearson properties",
        worst_range <= 1e-12 and worst_affine <= 1e-9 and worst_oracle <= 1e-12,
        f"range excess {worst_range:.2e}, affine {worst_affine:.2e}, oracle {worst_oracle:.2e}",
    )


def test_run_determinism(tmp_path):
    """Two CLI runs with the same config and seed produce byte-identical
    predictions and report files."""
    data = tmp_path / "data"
    out = tmp_path / "out"
    synth = subprocess.run(
        [sys.executable, "-m", "transduct.cli", "synth", "--blobs", "3", "--per-blob", "40",
         "--dim", "8", "--separation", "6", "--stddev", "1", "--seed", "7", "--out-dir", str(data)],
        capture_output=True, text=True,
    )
    assert synth.returncode == 0, synth.stderr
    cmd = [
        sys.executable, "-m", "transduct.cli", "run",
        "--features", str(data / "features.csv"),
        "--labels", str(data / "labels.csv"),
        "--truth", str(data / "labels.csv"),
        "--method", "gtg", "--anchor-fraction", "0.05",
        "--seed", "7", "--out-dir", str(out),
        "--metrics", "accuracy,macro_f1,nmi,recall@1",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    csv_one = (out / "predictions.csv").read_bytes()
    json_one = (out / "report.json").read_bytes()
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert second.returncode == 0, second.stderr
    same_csv = csv_one == (out / "predictions.csv").read_bytes()
    same_json = json_one == (out / "report.json").read_bytes()
    # sanity: the report carries real metrics
    report = json.loads(json_one)
    assert 0.0 <= report["metrics"]["accuracy"] <= 1.0
    _report("run determinism", same_csv and same_json, "byte-identical CSV and JSON")
