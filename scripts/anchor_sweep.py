#!/usr/bin/env python3
"""Anchor-budget sweep: accuracy of each propagation method as the
fraction of labeled samples grows.

Usage: python scripts/anchor_sweep.py [--dim 16] [--seed 7]
"""
import argparse
import tempfile
from pathlib import Path

import numpy as np

from transduct import BlobSpec, RunConfig, make_synthetic, run_pipeline
from transduct.io import write_features_csv, write_labels_csv
from transduct.pipeline import METHODS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--per-blob", type=int, default=100)
    parser.add_argument("--stddev", type=float, default=2.5, help="blob spread; larger is harder")
    parser.add_argument("--fractions", type=float, nargs="+", default=[0.01, 0.02, 0.05, 0.1, 0.2])
    args = parser.parse_args()

    spec = BlobSpec(blobs=3, per_blob=args.per_blob, dim=args.dim, separation=6.0, stddev=args.stddev)
    features, labels = make_synthetic(spec, args.seed)
    truth = labels.labels

    header = f"{'anchors':>8}" + "".join(f"{m:>20}" for m in METHODS)
    print(header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as tmp:
        fpath = Path(tmp) / "features.csv"
        lpath = Path(tmp) / "labels.csv"
        write_features_csv(fpath, features)
        write_labels_csv(lpath, features.ids, [f"blob{v}" for v in truth])
        for fraction in args.fractions:
            cells = [f"{fraction:>8.2%}"]
            for method in METHODS:
                cfg = RunConfig(
                    method=method,
                    features_path=str(fpath),
                    labels_path=str(lpath),
                    truth_path=str(lpath),
                    anchor_fraction=fraction,
                    seed=args.seed,
                    metrics=("accuracy",),
                    out_dir=str(Path(tmp) / f"{method}_{fraction}"),
                )
                predictions_path, _ = run_pipeline(cfg)
                rows = predictions_path.read_text().strip().splitlines()[1:]
                predicted = np.array([int(r.split(",")[1].removeprefix("blob")) for r in rows])
                cells.append(f"{np.mean(predicted == truth):>20.4f}")
            print("".join(cells))
    print(f"\n3 blobs x {args.per_blob}, dim {args.dim}, stddev {args.stddev}, "
          "all samples scored (anchors included)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
