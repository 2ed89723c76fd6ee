"""Command-line interface.

Subcommands: ``run`` executes the full propagation pipeline over CSV
files, ``synth`` writes a seeded synthetic blob dataset, ``eval`` scores
an embedding file. Exit codes: 0 success, 1 configuration error, 2 data
error, 3 numerical failure.

Set TRANSDUCT_THREADS to cap the BLAS thread pools used internally (it
must be set before the Python process imports numpy; the package applies
it on import).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DataError, NumericalError, TransductError
from .io import write_features_csv, write_labels_csv
from .pipeline import EVAL_DEFAULT_METRICS, METHODS, RunConfig, run_eval, run_pipeline
from .synth import BlobSpec, make_synthetic


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we want 1 for config
    problems, so route through the exception hierarchy instead."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="transduct", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="propagate labels over a feature file")
    run.add_argument("--features", required=True, help="feature CSV (id,f0,f1,...)")
    run.add_argument("--labels", help="label CSV (id,label; empty label = unlabeled)")
    run.add_argument("--truth", help="ground-truth label CSV for evaluation")
    run.add_argument("--method", required=True, choices=METHODS)
    run.add_argument("--anchor-fraction", type=float, help="stratified anchor sampling fraction in (0,1]")
    run.add_argument("--anchors-file", help="explicit anchor CSV (id,label)")
    run.add_argument("--negative-handling", choices=("clamp", "shift"), default=RunConfig.negative_handling)
    run.add_argument("--knn", type=int, help="sparsify the similarity graph to k neighbors per row")
    run.add_argument("--logits", help="prior logits CSV (id,l0,l1,...); enables the logits prior (gtg, group_loss)")
    # the four run settings default to None: RunConfig fills in the method's own default
    run.add_argument("--temperature", type=float, help="softmax temperature for the logits prior")
    run.add_argument("--max-iters", type=int, help="step cap of gtg, group_loss, label_spreading, label_propagation")
    run.add_argument("--tol", type=float, help="L1 step-change tolerance of the same methods; 0 runs exactly --max-iters")
    run.add_argument("--alpha", type=float, help="label spreading mixing coefficient")
    run.add_argument("--seed", type=int, default=RunConfig.seed)
    run.add_argument("--out-dir", default=RunConfig.out_dir)
    run.add_argument("--metrics", default=",".join(RunConfig.metrics), help="comma-separated metric names")

    synth = sub.add_parser("synth", help="write a synthetic blob dataset")
    synth.add_argument("--blobs", type=int, default=3)
    synth.add_argument("--per-blob", type=int, default=100)
    synth.add_argument("--dim", type=int, default=2)
    synth.add_argument("--separation", type=float, default=6.0)
    synth.add_argument("--stddev", type=float, default=1.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-dir", default=".")

    ev = sub.add_parser("eval", help="score an embedding file against truth labels")
    ev.add_argument("--features", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--labels", help="optional predictions CSV for accuracy / macro_f1")
    ev.add_argument("--metrics", default=",".join(EVAL_DEFAULT_METRICS))
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out-dir", default=".")
    return parser


def _metric_tuple(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _cmd_run(args) -> int:
    cfg = RunConfig(
        method=args.method,
        features_path=args.features,
        labels_path=args.labels,
        truth_path=args.truth,
        anchors_path=args.anchors_file,
        logits_path=args.logits,
        anchor_fraction=args.anchor_fraction,
        negative_handling=args.negative_handling,
        knn=args.knn,
        max_iterations=args.max_iters,
        tolerance=args.tol,
        alpha=args.alpha,
        temperature=args.temperature,
        seed=args.seed,
        metrics=_metric_tuple(args.metrics),
        out_dir=args.out_dir,
    )
    predictions_path, report = run_pipeline(cfg)
    print(f"wrote {predictions_path}")
    for name in sorted(report["metrics"]):
        print(f"{name}: {report['metrics'][name]:.6f}")
    return 0


def _cmd_synth(args) -> int:
    spec = BlobSpec(
        blobs=args.blobs,
        per_blob=args.per_blob,
        dim=args.dim,
        separation=args.separation,
        stddev=args.stddev,
    )
    features, labels = make_synthetic(spec, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_features_csv(out / "features.csv", features)
    names = [f"blob{c}" for c in labels.labels]
    write_labels_csv(out / "labels.csv", features.ids, names)
    print(f"wrote {out / 'features.csv'} and {out / 'labels.csv'}")
    return 0


def _cmd_eval(args) -> int:
    report_path, report = run_eval(
        args.features,
        args.truth,
        labels_path=args.labels,
        metric_names=_metric_tuple(args.metrics),
        seed=args.seed,
        out_dir=args.out_dir,
    )
    print(f"wrote {report_path}")
    for name in sorted(report["metrics"]):
        print(f"{name}: {report['metrics'][name]:.6f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_eval(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: a path that is missing, unreadable or of the wrong kind
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, TransductError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
