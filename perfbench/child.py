"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 [--pool 0|1]

``run.py`` starts this with ``src`` on ``PYTHONPATH``.  It runs one pass
of the workload (with ``--trace 1``: the serial pass only, with every
layer wrapped by the tracer), then the closed-form gate, and prints one
JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", type=int, choices=(0, 1), default=1)
    ap.add_argument("--spans", default="", help="file to write the traced spans to")
    args = ap.parse_args()

    import tracing
    import workloads

    tolerance, run = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        p = run(args.seed, bool(args.pool) and not tracer, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    workloads.closed_form_gate(p, tolerance)
    out = p.to_json()
    if tracer:
        out["layers"] = tracer.layer_metrics()
        refs, distinct = p.atom_sharing()
        out["layers"]["series.atom_refs"] = refs
        out["layers"]["series.distinct_atoms"] = distinct
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
