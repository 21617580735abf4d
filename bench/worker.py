"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--small]
    python3 bench/worker.py --kernels --seed N [--small]

The parent (bench/run.py) starts this with `src` on PYTHONPATH and a
PYTHONHASHSEED of its choosing, and reads one JSON object from the last
line of standard output.  Each op is timed around its call only; its
check and its report digest are computed outside the timed region.  An
untraced pass runs with the speed reference of bench/pace.py on, and each
op's time is reported both as measured (the reference calls taken out) and
scaled to the machine's nominal speed.  A traced pass runs without it, so
that its spans hold only the program's time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys

import kernels
import pace
import tracing
import workloads


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def run_ops(ops, pacer=None):
    rows = []
    wall = cpu = scaled_wall = scaled_cpu = 0.0
    if pacer is not None:
        pacer.start()
    for label, call, check in ops:
        c0 = cpu_seconds()
        t0 = pace.clock()
        try:
            raw = call()
            error = None
        except Exception as exc:  # an op that raises counts as failed
            raw, error = None, f"{type(exc).__name__}: {exc}"
        t1 = pace.clock()
        c1 = cpu_seconds()
        spent, factor = pacer.split(t0, t1) if pacer else (0.0, 1.0)
        own_wall = t1 - t0 - spent
        own_cpu = c1 - c0 - spent
        wall += own_wall
        cpu += own_cpu
        scaled_wall += own_wall * factor
        scaled_cpu += own_cpu * factor
        row = {"op": label, "seconds": own_wall,
               "scaled_seconds": own_wall * factor, "ok": False,
               "digest": None}
        if error is None:
            try:
                payload, ok = check(raw)
                row.update(ok=bool(ok), digest=digest(payload))
            except Exception as exc:  # a malformed report fails the op
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            row["error"] = error
        rows.append(row)
    if pacer is not None:
        pacer.stop()
    return {"ops": rows, "wall_s": wall, "cpu_s": cpu,
            "scaled_wall_s": scaled_wall, "scaled_cpu_s": scaled_cpu,
            "reference_s": pacer.reference_median() if pacer else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--kernels", action="store_true")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    if args.kernels:
        out = kernels.kernel_pass(args.seed, small=args.small)
    else:
        ops = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        out = run_ops(ops, None if tracer else pace.Pacer())
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.metrics()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = maxrss_kb / 1024.0
    out["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
