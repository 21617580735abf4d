"""buildinglab benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload fields|buildings|root_groups \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, nothing needs installing.  The run pins itself, and so every
process it starts, to one CPU, and has three parts:

1. set-up: `import buildinglab.cli` in 3 * SETUP_BATCH fresh interpreters;
   `setup_s` is the median wall time of one (interpreter start included,
   as every CLI call pays it), each scaled by the speed reference of
   bench/pace.py timed just before and after it.
2. timed passes: the workload's op list (bench/workloads.py) runs in a
   fresh interpreter (bench/worker.py), each pass under another
   PYTHONHASHSEED, until `--seconds` would be passed; at least two passes.
   The end-to-end metrics are medians over the passes, of op times scaled
   by the speed reference sampled during each op.
3. with `--trace 1`: one more pass with layer tracing (bench/tracing.py)
   and one field-kernel pass (bench/kernels.py); these give the per-layer
   metrics instead, and `trace.overhead_s` is the traced pass's wall time
   minus the median untraced one (both unscaled).

The correctness gate: an op fails if it raises, if its check fails (CLI:
exit 0, no failed check, the expected check ids), or if its report, minus
`wall_time_seconds`, differs from the first pass's (the passes run under
different PYTHONHASHSEED values).  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; a readable table of the same
metrics goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import pace  # noqa: E402
WORKLOADS = ("fields", "buildings", "root_groups")
# Import timings are taken in batches before the first and second passes and
# after the last, so they sample the machine at three points of the run.
SETUP_BATCH = 7
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "scaled_wall_s": "s",
    "scaled_cpu_s": "s",
    "scaled_slowest_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("found_per_search"):
        return "count/search"
    return "count"


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all."""


def child_env(root: Path, hash_seed: int | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the speed
    reference timed here runs where the set-up process it scales ran."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_sample(root: Path) -> float:
    before = pace.reference_seconds()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import buildinglab.cli"],
                          cwd=root, env=child_env(root), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    after = pace.reference_seconds()
    if proc.returncode != 0:
        raise HarnessError("import buildinglab.cli failed:\n"
                           + proc.stderr.decode(errors="replace"))
    return elapsed * pace.NOMINAL_S / ((before + after) / 2)


def worker(root: Path, hash_seed: int, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=child_env(root, hash_seed), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"worker {' '.join(args)} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over all passes; the first pass's digests are
    the reference for the others."""
    reference = [op["digest"] for op in passes[0]["ops"]]
    attempted = failed = 0
    for p in passes:
        if len(p["ops"]) != len(reference):
            raise HarnessError("passes ran different op lists")
        for op, ref in zip(p["ops"], reference):
            attempted += 1
            if not op["ok"] or op["digest"] != ref:
                failed += 1
                print(f"FAILED op {op['op']!r} (PYTHONHASHSEED="
                      f"{p['hash_seed']}): ok={op['ok']} "
                      f"{op.get('error', '')}", file=sys.stderr)
    return attempted, failed


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False, root: Path | None = None) -> dict:
    root = Path.cwd() if root is None else root
    if not (root / "src" / "buildinglab" / "cli.py").is_file():
        raise HarnessError(f"no buildinglab source under {root / 'src'}")
    pin_to_one_cpu()
    extra = ["--small"] if small else []
    common = ["--seed", str(seed), *extra]

    def setup_batch():
        setup.extend(setup_sample(root) for _ in range(SETUP_BATCH))

    setup: list[float] = []
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        if len(passes) < 2:
            setup_batch()
        passes.append(worker(root, len(passes) + 1,
                             "--workload", workload, *common))
        elapsed = time.perf_counter() - started
        if len(passes) >= 2 and elapsed + elapsed / len(passes) > seconds:
            break
    setup_batch()

    walls = [p["wall_s"] for p in passes]
    reference_s = statistics.median(p["reference_s"] for p in passes)
    metrics = {
        "scaled_wall_s": statistics.median(p["scaled_wall_s"]
                                           for p in passes),
        "scaled_cpu_s": statistics.median(p["scaled_cpu_s"] for p in passes),
        "scaled_slowest_op_s": statistics.median(
            max(op["scaled_seconds"] for op in p["ops"]) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    units = dict(END_TO_END_UNITS)
    kernel_ops = []
    if trace:
        traced = worker(root, len(passes) + 1, "--workload", workload,
                        "--trace", *common)
        passes.append(traced)
        kernels = worker(root, 0, "--kernels", *common)
        kernel_ops = kernels["ops"]
        metrics = dict(traced["layers"])
        metrics.update(kernels["rates"])
        metrics["trace.overhead_s"] = (traced["wall_s"]
                                       - statistics.median(walls))
        metrics["pace.unscaled_wall_s"] = statistics.median(walls)
        metrics["pace.reference_us"] = 1e6 * reference_s
        units = {name: layer_unit(name) for name in metrics}

    attempted, failed = gate(passes)
    attempted += len(kernel_ops)
    for op in kernel_ops:
        if not op["ok"]:
            failed += 1
            print(f"FAILED op {op['op']!r}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "passes": len(walls),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced op lists (smoke test only)")
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), small=args.small)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    passes = result.pop("passes")
    print(f"{args.workload} seed={args.seed} passes={passes} "
          f"attempted={result['attempted']} failed={result['failed']}",
          file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6f} {m['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
