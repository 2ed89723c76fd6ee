"""Command-line interface.

Subcommands: ``run`` executes the full propagation pipeline over CSV
files, ``synth`` writes a seeded synthetic blob dataset, ``eval`` scores
an embedding file. Exit codes: 0 success, 1 configuration error, 2 data
error, 3 numerical failure, 4 out of memory.

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
from .pipeline import METHODS, RunConfig, run_eval, run_pipeline
from .similarity import NEGATIVE_MODES
from .synth import BlobSpec, make_synthetic


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we want 1 for config
    problems, so route through the exception hierarchy instead.

    An option left out sets nothing, so the callee's own default applies:
    each option's dest is the RunConfig field, run_eval parameter or
    BlobSpec field it sets."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _metric_tuple(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _build_parser() -> _Parser:
    parser = _Parser(prog="transduct", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="propagate labels over a feature file")
    run.add_argument("--features", dest="features_path", required=True, help="feature CSV (id,f0,f1,...)")
    run.add_argument("--labels", dest="labels_path", help="label CSV (id,label; empty label = unlabeled)")
    run.add_argument("--truth", dest="truth_path", help="ground-truth label CSV for evaluation")
    run.add_argument("--method", required=True, choices=METHODS)
    run.add_argument("--anchor-fraction", type=float, help="stratified anchor sampling fraction in (0,1]")
    run.add_argument("--anchors-file", dest="anchors_path", help="explicit anchor CSV (id,label)")
    run.add_argument("--negative-handling", choices=NEGATIVE_MODES)
    run.add_argument("--knn", type=int, help="sparsify the similarity graph to k neighbors per row")
    run.add_argument("--logits", dest="logits_path",
                     help="prior logits CSV (id,l0,l1,...); enables the logits prior (gtg, group_loss)")
    run.add_argument("--temperature", type=float, help="softmax temperature for the logits prior")
    run.add_argument("--max-iters", dest="max_iterations", type=int,
                     help="step cap of gtg, group_loss, label_spreading, label_propagation")
    run.add_argument("--tol", dest="tolerance", type=float,
                     help="L1 step-change tolerance of the same methods; 0 runs exactly --max-iters")
    run.add_argument("--alpha", type=float, help="label spreading mixing coefficient")
    run.add_argument("--seed", type=int)
    run.add_argument("--out-dir")
    run.add_argument("--metrics", type=_metric_tuple, help="comma-separated metric names")

    synth = sub.add_parser("synth", help="write a synthetic blob dataset")
    synth.add_argument("--blobs", type=int)
    synth.add_argument("--per-blob", type=int)
    synth.add_argument("--dim", type=int)
    synth.add_argument("--separation", type=float)
    synth.add_argument("--stddev", type=float)
    # make_synthetic takes no default seed and writes no files
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-dir", default=".")

    ev = sub.add_parser("eval", help="score an embedding file against truth labels")
    ev.add_argument("--features", dest="features_path", required=True)
    ev.add_argument("--truth", dest="truth_path", required=True)
    ev.add_argument("--labels", dest="labels_path", help="optional predictions CSV for accuracy / macro_f1")
    ev.add_argument("--metrics", dest="metric_names", type=_metric_tuple)
    ev.add_argument("--seed", type=int)
    ev.add_argument("--out-dir")
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        command = args.pop("command")
        if command == "synth":
            seed, out = args.pop("seed"), Path(args.pop("out_dir"))
            features, labels = make_synthetic(BlobSpec(**args), seed)
            out.mkdir(parents=True, exist_ok=True)
            write_features_csv(out / "features.csv", features)
            write_labels_csv(out / "labels.csv", features.ids, [f"blob{c}" for c in labels.labels])
            print(f"wrote {out / 'features.csv'} and {out / 'labels.csv'}")
            return 0
        # run_pipeline and run_eval are looked up here, at call time, so a
        # tracer that rebinds them on this module sees the call
        path, report = run_pipeline(RunConfig(**args)) if command == "run" else run_eval(**args)
        print(f"wrote {path}")
        for name in sorted(report["metrics"]):
            print(f"{name}: {report['metrics'][name]:.6f}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: a path that is missing, unreadable or of the wrong kind
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, TransductError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's error names the bytes it asked for, from the array's shape and dtype
        print(f"memory error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
