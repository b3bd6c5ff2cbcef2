"""One measurement pass in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

Modes: ``setup`` stops once inputs are ready; ``plain`` runs whole
cycles until S seconds have passed; ``prefix`` runs the workload's fixed
prefix untraced and ``traced`` the same prefix with the tracer
installed.  The worker prints ``READY`` when its inputs are ready, then
one JSON line with its results.  It is started by ``run.py`` with the
checkout's ``src`` on ``PYTHONPATH``.
"""

import argparse
import json
import os
import resource
import sys
import time

_t0 = time.perf_counter()
import oagkit  # noqa: E402  (the import itself is measured)
IMPORT_MS = (time.perf_counter() - _t0) * 1e3

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "plain", "prefix", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    expected = os.environ.get("OAGBENCH_SRC")
    if expected and not os.path.abspath(oagkit.__file__).startswith(expected):
        print(f"oagkit imported from {oagkit.__file__}, not {expected}",
              file=sys.stderr)
        return 2

    work = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    out = {"import_ms": IMPORT_MS}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    run = Runner(tracer, by_label=args.mode != "plain")
    start = time.perf_counter()
    if args.mode == "plain":
        cycles = 0
        while (time.perf_counter() - start < args.seconds
               or cycles < work.min_cycles):
            work.cycle(run)
            cycles += 1
    else:
        work.prefix(run)
    out["wall_s"] = time.perf_counter() - start
    out.update(run.summary())
    out.update(work.summary())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["self_ms"] = {k: v * 1e3 for k, v in tracer.self_s.items()}
        out["calls"] = dict(tracer.calls)
        out["counts"] = dict(tracer.counts)
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
