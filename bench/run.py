"""The oagkit benchmark.

    python3 bench/run.py --workload {verdicts,schemes,wide} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its
``src`` directory, never from anywhere else.  Every pass runs in a fresh
interpreter, one at a time, single threaded.

``--trace 0`` sets the workload up nine times (eight set-up-only
processes and the measured one) and reports the median as ``setup_s``,
then measures whole cycles for S seconds untraced and reports the
end-to-end metrics.  For ``verdicts`` a second process replays the
first items and must reproduce the verdict digest.

``--trace 1`` runs the fixed prefix of every workload (the named one
first) untraced and then traced, and reports the per-layer metrics;
spans go to ``.bench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
readable report.  The exit code is 0 only when every pass ran.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import metrics
from speed import REF_PROBE_S, probe

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("verdicts", "schemes", "wide")
SETUP_ONLY_RUNS = 8
BUDGET_S = 170.0


class BenchError(Exception):
    pass


class Session:
    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.probes = []

    def spawn(self, workload: str, mode: str, seconds: float = 0.0):
        """Run one worker; returns (seconds from start to READY, result)."""
        cmd = [sys.executable, "-s", os.path.join(BENCH, "worker.py"),
               "--workload", workload, "--seed", str(self.seed),
               "--mode", mode, "--seconds", repr(seconds)]
        if mode == "traced":
            cmd += ["--spans", os.path.join(
                OUT, f"spans-{workload}-seed{self.seed}.jsonl.gz")]
        env = dict(os.environ, PYTHONPATH=SRC, OAGBENCH_SRC=SRC)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        self.probes += [probe() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                                env=env, text=True)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = rest.strip().splitlines()
        if proc.returncode != 0 or first.strip() != "READY" or not lines:
            raise BenchError(f"{workload} {mode} pass failed "
                             f"(exit {proc.returncode})")
        return ready, json.loads(lines[-1])


def _failures(result: dict) -> str:
    parts = [f"{k} {v}" for k, v in sorted(result["errors"].items())]
    parts += [f"mismatch {k} {v}" for k, v in sorted(result["mismatches"].items())]
    parts += [f"reference unchecked {k} {v}"
              for k, v in sorted(result["unchecked"].items())]
    return ", ".join(parts) or "none"


def _report_pass(workload: str, mode: str, r: dict) -> None:
    rate = r["failed"] / r["attempted"]
    print(f"  {workload} {mode}: {r['attempted']} ops in {r['busy_s']:.3f} s "
          f"of op time ({r['wall_s']:.1f} s wall); fail_rate {rate:.5f} share "
          f"({r['failed']} of {r['attempted']}: {_failures(r)})")
    print(f"    raw {r['raw_ops_per_s']:.6g} ops/s over {r['raw_busy_s']:.3f} s; "
          f"speed scale {r['speed_scale']:.4f} from {r['probes']} probes")
    for kind, text in sorted(r["examples"].items()):
        print(f"    first {kind}: {text}")
    if "skipped_draws" in r:
        print(f"    {r['items']} items, {r['skipped_draws']} generated draws "
              f"rejected at construction and skipped, digest {r['digest'][:16]}")
        aside = ", ".join(f"{k} {v}" for k, v in sorted(r["set_aside"].items()))
        raised = ", ".join(f"{k} {v}" for k, v in sorted(r["known_raised"].items()))
        print(f"    set aside as known library failures: {aside or 'none'}; "
              f"of the first {r['known_checked']}, the classifier still "
              f"raises on {sum(r['known_raised'].values())} "
              f"({raised or 'none'})")


def run_end_to_end(s: Session, workload: str):
    setups = [s.spawn(workload, "setup")[0] for _ in range(SETUP_ONLY_RUNS)]
    ready, plain = s.spawn(workload, "plain", s.seconds)
    setups.append(ready)
    checked = not plain["mismatches"] and not plain["unchecked"]
    print(f"workload {workload} seed {s.seed} seconds {s.seconds} trace 0")
    _report_pass(workload, "plain", plain)
    digest_ok = True
    if workload == "verdicts":
        _, replay = s.spawn(workload, "prefix")
        digest_ok = replay["digest"] == plain["digest"]
        print(f"    replay digest {'matches' if digest_ok else 'DIFFERS'}")
    scale = REF_PROBE_S / statistics.median(s.probes)
    values = metrics.end_to_end(plain, [t * scale for t in setups])
    print(f"  raw setup samples (s): {', '.join(f'{t:.4f}' for t in setups)}; "
          f"speed scale {scale:.4f}")
    for name, m in values.items():
        print(f"  {name:12s} {m['value']:.6g} {m['unit']}")
    return checked and digest_ok, plain["attempted"], plain["failed"], values


def run_per_layer(s: Session, workload: str):
    os.makedirs(OUT, exist_ok=True)
    order = [workload] + [w for w in WORKLOADS if w != workload]
    passes = {}
    correct, attempted, failed = True, 0, 0
    print(f"workload {workload} seed {s.seed} trace 1 (prefix of every workload)")
    for w in order:
        passes[w] = {"prefix": s.spawn(w, "prefix")[1],
                     "traced": s.spawn(w, "traced")[1]}
        for mode, r in passes[w].items():
            _report_pass(w, mode, r)
            correct = correct and not r["mismatches"] and not r["unchecked"]
            attempted += r["attempted"]
            failed += r["failed"]
        if w == "verdicts":
            same = passes[w]["prefix"]["digest"] == passes[w]["traced"]["digest"]
            print(f"    traced digest {'matches' if same else 'DIFFERS'}")
            correct = correct and same
        print(f"    traced pass: {passes[w]['traced']['spans']} spans")
    values = metrics.per_layer(passes)
    for spec in metrics.PER_LAYER:
        m = values[spec["name"]]
        print(f"  {spec['name']:40s} {m['value']:.6g} {m['unit']}  "
              f"[{spec['workload']}; moves {spec['moves']}]")
    return correct, attempted, failed, values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "oagkit", "__init__.py")):
        print(f"no oagkit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    session = Session(args.seed, args.seconds)
    try:
        if args.trace:
            result = run_per_layer(session, args.workload)
        else:
            result = run_end_to_end(session, args.workload)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed, values = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
