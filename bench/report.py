"""Every metric of every workload, by name and unit, in one table.

    python3 bench/report.py [--seed N] [--seconds S] [--record FILE]

Runs bench/run.py's untraced and traced runs on each workload, prints one
row per metric (name, unit, one column per workload) and the correctness
gate's attempted/failed counts, and exits 1 if any op failed.  With
`--record FILE` the same numbers are written as JSON, which is how
bench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--record", help="write the numbers to this JSON file")
    args = ap.parse_args(argv)

    results = {}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            print(f"running {workload} trace={int(trace)} ...",
                  file=sys.stderr, flush=True)
            results[(workload, trace)] = run.run(
                workload, args.seed, args.seconds, trace)

    names: dict[str, str] = {}
    for res in results.values():
        for name, m in res["metrics"].items():
            names.setdefault(name, m["unit"])
    header = f"{'metric':40s} {'unit':13s}" + "".join(
        f"{w:>16s}" for w in run.WORKLOADS)
    print(header)
    for name, unit in names.items():
        row = f"{name:40s} {unit:13s}"
        for workload in run.WORKLOADS:
            for trace in (False, True):
                m = results[(workload, trace)]["metrics"].get(name)
                if m is not None:
                    row += f"{m['value']:16.6g}"
        print(row)
    failed = 0
    for (workload, trace), res in results.items():
        failed += res["failed"]
        print(f"gate {workload} trace={int(trace)}: attempted="
              f"{res['attempted']} failed={res['failed']} "
              f"passes={res['passes']}")

    if args.record:
        record = {
            "seed": args.seed,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "units": names,
            "results": {
                workload: {
                    "attempted": sum(results[(workload, t)]["attempted"]
                                     for t in (False, True)),
                    "failed": sum(results[(workload, t)]["failed"]
                                  for t in (False, True)),
                    "metrics": {
                        name: m["value"] for t in (False, True)
                        for name, m in results[(workload, t)]["metrics"]
                        .items()},
                }
                for workload in run.WORKLOADS
            },
        }
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
