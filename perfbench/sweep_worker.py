"""In-process worker for the anchor-sweep workload.

Imports transduct once, then serves passes: for each JSON line on stdin
(``{"ops": [...], "traced": bool}``) it calls ``run_pipeline`` once per op,
as ``scripts/anchor_sweep.py`` does, and answers with one JSON line holding
the pass wall time, each op's wall time and error, the process's
``ru_maxrss`` and, for a traced pass, the spans and counters. It exits at
the end of stdin.
"""
import json
import resource
import sys
import time
import traceback

# transduct applies TRANSDUCT_THREADS before numpy loads, so it must be
# imported before the tracer (which imports numpy).
from transduct import pipeline

from tracer import IN_PROCESS_TARGETS, Tracer


def run_pass(ops: list[dict], tracer: Tracer | None) -> dict:
    walls, errors, spans = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for op in ops:
            cfg = pipeline.RunConfig(
                method=op["method"],
                features_path=op["features"],
                truth_path=op["truth"],
                anchors_path=op["anchors"],
                seed=op["seed"],
                metrics=tuple(op["metrics"].split(",")),
                out_dir=op["out_dir"],
            )
            t0 = time.perf_counter()
            try:
                pipeline.run_pipeline(cfg)
                errors.append(None)
            except Exception:  # an op failure is counted, not fatal, as with a CLI op
                errors.append(traceback.format_exc().strip().splitlines()[-1])
            walls.append(time.perf_counter() - t0)
            if tracer is not None:
                spans.append(tracer.take())
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "wall": wall,
        "op_walls": walls,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "traces": [{"spans": s, "counts": c} for s, c in spans],
    }


def main() -> int:
    tracer = Tracer(IN_PROCESS_TARGETS)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_pass(request["ops"], tracer if request["traced"] else None)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
