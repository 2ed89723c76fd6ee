#!/usr/bin/env python3
"""Benchmark for the transduct pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-gtg --seed 1 --seconds 25 --trace 0

Generates the workload's CSV inputs from ``--seed``, measures passes over
the workload's op list for ``--seconds`` (at least one pass), checks every
op's outputs, and prints an environment block, the metrics with their
units and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json from untraced runs of the real
entry point; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics plus the tracing overhead.
``--record-reference`` runs one pass and stores its predicted labels as
the reference for that workload and seed. See NOTES.md for why each
workload exists.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import numpy as np

from checks import check_eval_op, check_run_op
from tracer import self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

#: BLAS threads for every op, fixed so runs compare; equals nproc on the
#: 2-core machine the benchmark was sized on.
THREADS = "2"
#: What the ``transduct`` console script runs.
ENTRY = "import sys; from transduct.cli import main; sys.exit(main())"
IMPORT_PROBE = "import time; t = time.perf_counter(); import transduct.cli; print(time.perf_counter() - t)"
SETUP_SAMPLES = 11
OP_TIMEOUT_S = 150
ANCHOR_FRACTION = 0.02
#: Per-coordinate standard deviation of each centroid pattern.
CENTROID_SPREAD = 6.5
METHODS = ("gtg", "group_loss", "label_spreading", "label_propagation", "harmonic")
EVAL_METRICS = "recall@1,recall@2,recall@4,recall@8,nmi"


class Op(NamedTuple):
    name: str
    method: str  # a `transduct run` method, or "eval"
    knn: int | None
    metrics: str
    anchor_fraction: float | None


@dataclass(frozen=True)
class Workload:
    mode: str  # "cli": one process per op; "inproc": one worker process
    blobs: int
    per_blob: int
    dim: int
    stddev: float
    ops: tuple[Op, ...]

    @property
    def fractions(self) -> list[float]:
        return sorted({op.anchor_fraction for op in self.ops if op.anchor_fraction is not None})


WORKLOADS = {
    "dense-gtg": Workload(
        "cli", 4, 1000, 64, 2.5,
        (Op("run-gtg", "gtg", None, "accuracy,macro_f1,nmi", ANCHOR_FRACTION),),
    ),
    "knn-sweep": Workload(
        "cli", 4, 750, 64, 2.5,
        tuple(Op(f"run-{m}-knn10", m, 10, "accuracy,macro_f1", ANCHOR_FRACTION)
              for m in ("gtg", "label_spreading", "label_propagation", "harmonic"))
        + (Op("eval", "eval", None, EVAL_METRICS, None),),
    ),
    "anchor-sweep": Workload(
        "inproc", 3, 100, 16, 2.5,
        tuple(Op(f"run-{m}-a{f}", m, None, "accuracy,macro_f1,nmi", f)
              for f in (0.01, 0.02, 0.05, 0.1, 0.2) for m in METHODS),
    ),
}


# --- inputs ------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_inputs(workload: Workload, seed: int, data_dir: Path) -> dict:
    """Seeded Gaussian blobs (shuffled), a truth file and one anchor file per
    fraction, drawn per class without replacement (at least one per class).
    Returns the paths plus what the checks need."""
    rng = np.random.default_rng(seed)
    # Centroid patterns are zero-mean and mutually orthogonal, so every pair
    # of blobs has Pearson correlation exactly 0 and only the noise varies
    # with the seed: uniformly random centroids sometimes land two blobs on
    # correlated patterns, which swings accuracy and iteration counts (and
    # so wall time) from seed to seed.
    patterns = rng.standard_normal((workload.dim, workload.blobs))
    patterns -= patterns.mean(axis=0)
    basis, _ = np.linalg.qr(patterns)
    centroids = CENTROID_SPREAD * np.sqrt(workload.dim) * basis.T + rng.uniform(0.0, 10.0, size=(workload.blobs, 1))
    labels = np.repeat(np.arange(workload.blobs), workload.per_blob)
    points = centroids[labels] + workload.stddev * rng.standard_normal((labels.size, workload.dim))
    order = rng.permutation(labels.size)
    points, labels = points[order], labels[order]
    ids = [f"s{i:05d}" for i in range(labels.size)]
    names = [f"blob{c}" for c in labels]

    data_dir.mkdir(parents=True, exist_ok=True)
    with open(data_dir / "features.csv", "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(f"f{j}" for j in range(workload.dim)) + "\n")
        for sid, row in zip(ids, points):
            fh.write(sid + "," + ",".join(map(_fmt, row)) + "\n")
    with open(data_dir / "truth.csv", "w", encoding="utf-8") as fh:
        fh.write("id,label\n" + "".join(f"{sid},{name}\n" for sid, name in zip(ids, names)))

    anchors = {}
    for fraction in workload.fractions:
        picked = []
        for c in range(workload.blobs):
            pool = np.flatnonzero(labels == c)
            count = max(1, int(round(fraction * pool.size)))
            picked.extend(rng.choice(pool, size=count, replace=False).tolist())
        picked.sort()
        path = data_dir / f"anchors_{fraction}.csv"
        path.write_text("id,label\n" + "".join(f"{ids[i]},{names[i]}\n" for i in picked), encoding="utf-8")
        anchors[fraction] = (path, {ids[i] for i in picked})
    return {
        "features": data_dir / "features.csv",
        "truth_path": data_dir / "truth.csv",
        "ids": ids,
        "truth": dict(zip(ids, names)),
        "anchors": anchors,
    }


# --- ops -----------------------------------------------------------------


@dataclass
class OpResult:
    name: str
    wall: float
    maxrss_kb: int = 0
    problems: list[str] = field(default_factory=list)
    accuracy: float | None = None
    digest: object = None  # label digest (run) or metric dict (eval)
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class PassResult:
    wall: float
    ops: list[OpResult]

    @property
    def peak_rss_mb(self) -> float:
        return max(op.maxrss_kb for op in self.ops) / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    # TRANSDUCT_THREADS sets these only where they are unset
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    env["TRANSDUCT_THREADS"] = THREADS
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict, log_path: Path) -> tuple[int, float, int]:
    """Run argv to completion; returns (exit code, spawn-to-exit seconds, ru_maxrss in KiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def op_args(op: Op, inputs: dict, seed: int, out_dir: Path) -> list[str]:
    common = ["--features", str(inputs["features"]), "--truth", str(inputs["truth_path"]),
              "--metrics", op.metrics, "--seed", str(seed), "--out-dir", str(out_dir)]
    if op.method == "eval":
        return ["eval", *common]
    args = ["run", *common, "--anchors-file", str(inputs["anchors"][op.anchor_fraction][0]), "--method", op.method]
    return args + (["--knn", str(op.knn)] if op.knn else [])


def check_op(result: OpResult, op: Op, inputs: dict, out_dir: Path, reference: dict | None) -> None:
    expected = None if reference is None else reference.get(op.name)
    if op.method == "eval":
        problems, result.digest = check_eval_op(out_dir, op.metrics.split(","), expected)
    else:
        anchor_ids = inputs["anchors"][op.anchor_fraction][1]
        problems, result.accuracy, result.digest = check_run_op(
            out_dir, inputs["ids"], inputs["truth"], anchor_ids, expected
        )
    result.problems.extend(problems)


class Runner:
    """Runs passes of one workload's ops and checks their outputs."""

    def __init__(self, name: str, seed: int, work: Path, reference: dict | None):
        self.seed, self.work = seed, work
        self.workload = WORKLOADS[name]
        self.reference = reference
        self.env = child_env()
        self.inputs = write_inputs(self.workload, seed, work / "data")
        self.worker = None
        if self.workload.mode == "inproc":
            self.worker_log = open(work / "worker.log", "wb")
            self.worker = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "sweep_worker.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.worker_log,
                env=self.env, cwd=ROOT, text=True,
            )

    def close(self) -> None:
        if self.worker is not None:
            self.worker.stdin.close()
            try:
                self.worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
            self.worker.stdout.close()
            self.worker_log.close()

    def out_dir(self, op: Op) -> Path:
        return self.work / "ops" / op.name

    def fresh_out_dir(self, op: Op) -> Path:
        """The op's output directory, emptied so no earlier pass's files get checked."""
        out_dir = self.out_dir(op)
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        return out_dir

    def run_pass(self, traced: bool) -> PassResult:
        if self.worker is not None:
            return self._inproc_pass(traced)
        results, start = [], time.perf_counter()
        for op in self.workload.ops:
            out_dir = self.fresh_out_dir(op)
            args = op_args(op, self.inputs, self.seed, out_dir)
            spans_path = out_dir / "spans.json"
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), "--", *args]
            else:
                argv = [sys.executable, "-c", ENTRY, *args]
            log_path = out_dir / "log.txt"
            code, wall, maxrss = spawn(argv, self.env, log_path)
            result = OpResult(op.name, wall, maxrss)
            if code != 0:
                last = log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
                result.problems.append(f"exit code {code}: {''.join(last)}")
            else:
                check_op(result, op, self.inputs, out_dir, self.reference)
            if traced and code == 0:
                result.trace = json.loads(spans_path.read_text(encoding="utf-8"))
            results.append(result)
        # op walls are summed so the output checks between ops stay untimed
        return PassResult(sum(r.wall for r in results), results)

    def _inproc_pass(self, traced: bool) -> PassResult:
        ops = [
            {"method": op.method, "features": str(self.inputs["features"]), "truth": str(self.inputs["truth_path"]),
             "anchors": str(self.inputs["anchors"][op.anchor_fraction][0]), "metrics": op.metrics, "seed": self.seed,
             "out_dir": str(self.fresh_out_dir(op))}
            for op in self.workload.ops
        ]
        self.worker.stdin.write(json.dumps({"ops": ops, "traced": traced}) + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            log = (self.work / "worker.log").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"anchor-sweep worker exited:\n{log}")
        reply = json.loads(line)
        results = []
        for i, op in enumerate(self.workload.ops):
            result = OpResult(op.name, reply["op_walls"][i], reply["maxrss_kb"])
            if reply["errors"][i]:
                result.problems.append(reply["errors"][i])
            else:
                check_op(result, op, self.inputs, self.out_dir(op), self.reference)
            if traced:
                result.trace = reply["traces"][i]
            results.append(result)
        return PassResult(reply["wall"], results)


# --- metrics -------------------------------------------------------------


def measure_setup(env: dict) -> float:
    """Median time to import transduct.cli in a fresh interpreter, after one
    unmeasured import that fills the bytecode cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(out.stdout))
    return statistics.median(samples)


def pass_accuracy(p: PassResult) -> float:
    values = [op.accuracy for op in p.ops if op.accuracy is not None]
    return sum(values) / len(values) if values else 0.0


def end_to_end(passes: list[PassResult], setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "accuracy": statistics.median(pass_accuracy(p) for p in passes),
    }


def op_accounting(op: OpResult, cli: bool) -> tuple[float, float]:
    """(cli.process_s, sum of every span's self time) for one traced op.

    cli.process_s is the op's spawn-to-exit wall minus its top-level span
    (run_pipeline or run_eval); in-process ops have none."""
    spans = op.trace["spans"]
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    return (op.wall - top if cli else 0.0), sum(self_times(spans))


def layer_metrics(p: PassResult, cli: bool) -> dict:
    """Per-layer sums over one traced pass."""
    values: dict[str, float] = {}
    for op in p.ops:
        if op.trace is None:
            continue
        spans = op.trace["spans"]
        own = self_times(spans)
        for (name, start, end, _), self_s in zip(spans, own):
            if name.startswith("pipeline."):
                values["pipeline.self_s"] = values.get("pipeline.self_s", 0.0) + self_s
            else:
                values[name + ".s"] = values.get(name + ".s", 0.0) + (end - start)
        for name, count in op.trace["counts"].items():
            values[name] = values.get(name, 0.0) + count
        if cli:
            values["cli.process_s"] = values.get("cli.process_s", 0.0) + op_accounting(op, cli)[0]
    iterations = values.get("dynamics.iterations", 0.0)
    values["dynamics.s_per_iteration"] = values.get("dynamics.run_dynamics.s", 0.0) / iterations if iterations else 0.0
    calls = values.pop("baselines.label_propagation.calls", 0.0)
    converged = values.pop("baselines.label_propagation.converged", 0.0)
    values["baselines.label_propagation.converged_frac"] = converged / calls if calls else 0.0
    return values


def accounting_gap(p: PassResult, cli: bool) -> float:
    """Largest per-op |sum of span self times + cli.process_s - op wall|."""
    gaps = []
    for op in p.ops:
        if op.trace is None:
            continue
        process, own = op_accounting(op, cli)
        gaps.append(abs(own + process - op.wall))
    return max(gaps, default=0.0)


# --- environment and output ------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "TRANSDUCT_THREADS": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
    }


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def record_reference(workload: str, seed: int, p: PassResult) -> None:
    path = REFERENCE_DIR / f"{workload}.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table[str(seed)] = {op.name: op.digest for op in p.ops}
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def print_failures(passes: list[PassResult]) -> None:
    for p in passes:
        for op in p.ops:
            for problem in op.problems:
                print(f"FAILED {op.name}: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run one untraced pass and store its labels as the reference for this seed")
    args = parser.parse_args()

    if not (SRC / "transduct" / "cli.py").is_file():
        print(f"error: no transduct sources under {SRC}", file=sys.stderr)
        return 2

    env_block = environment(args.workload, args.seed)
    print("== environment ==")
    for key, value in env_block.items():
        print(f"{key}: {value}")

    reference = None if args.record_reference else load_reference(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, reference)
    try:
        # an in-process worker serves every pass, so its first-call costs
        # (lazy imports, BLAS thread start-up) are paid once, before timing;
        # a CLI op pays them on every run, so CLI workloads get no warm-up
        warmup = [runner.run_pass(traced=False)] if runner.worker is not None else []
        if args.record_reference:
            p = runner.run_pass(traced=False)
            print_failures([p])
            if any(op.failed for op in p.ops):
                return 1
            record_reference(args.workload, args.seed, p)
            print(f"recorded reference for {args.workload} seed {args.seed}")
            return 0

        setup_s = None if args.trace else measure_setup(runner.env)
        plain: list[PassResult] = []
        traced: list[PassResult] = []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            if args.trace:
                # alternate which side goes first so drift hits both equally
                order = (False, True) if len(plain) % 2 == 0 else (True, False)
                for is_traced in order:
                    (traced if is_traced else plain).append(runner.run_pass(is_traced))
            else:
                plain.append(runner.run_pass(traced=False))
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    # warm-up ops are checked and counted too, only not timed
    passes = warmup + plain + traced
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(op.failed for p in passes for op in p.ops)
    print_failures(passes)
    if reference is None:
        print(f"WARNING: no reference labels recorded for {args.workload} seed {args.seed}; "
              "label match unchecked, every other check ran")

    cli = WORKLOADS[args.workload].mode == "cli"
    print(f"== {args.workload}: {len(plain)} untraced, {len(traced)} traced passes, "
          f"{attempted} ops, closed loop with one client ==")
    if args.trace:
        layers = [layer_metrics(p, cli) for p in traced]
        values = {name: statistics.median(layer.get(name, 0.0) for layer in layers)
                  for name in {n for layer in layers for n in layer}}
        untraced_wall = statistics.median(p.wall for p in plain)
        traced_wall = statistics.median(p.wall for p in traced)
        values["trace.overhead_s"] = traced_wall - untraced_wall
        print(f"untraced wall_s {untraced_wall:.4f}  traced wall_s {traced_wall:.4f}  "
              f"overhead {values['trace.overhead_s']:+.4f} s")
        print(f"largest per-op |self times + cli.process_s - op wall| over traced ops: "
              f"{max(accounting_gap(p, cli) for p in traced):.3g} s")
        print("per op (last pair): untraced wall | traced wall | self times + cli.process_s")
        for op_plain, op_traced in zip(plain[-1].ops, traced[-1].ops):
            if op_traced.trace is not None:
                process, own = op_accounting(op_traced, cli)
                print(f"  {op_plain.name:28s} {op_plain.wall:9.4f} | {op_traced.wall:9.4f} | {own + process:9.4f}")
    else:
        values = end_to_end(plain, setup_s)
        walls = sorted(p.wall for p in plain)
        print(f"pass wall_s over {len(walls)} passes: " + " ".join(f"{w:.4f}" for w in walls))
        values["failed_frac"] = failed / attempted
        print(f"failed_frac: {values['failed_frac']} ({failed} of {attempted} ops)")

    metrics = {}
    for spec in metric_specs(bool(args.trace)):
        name = spec["name"]
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}
        print(f"{name}: {metrics[name]['value']!r} {spec['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
