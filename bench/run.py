"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: proximity_grid and ranging_sweep (the paper's two experiment
CLIs) and parking_lot (the `serve` line protocol under a closed-loop
client, then restarted from its journal). `--trace 0` measures the
end-to-end metrics with nothing wrapped; `--trace 1` runs the program
through `bench/launch.py`, which times every layer from outside, and
reports the per-layer metrics. Metric names and units come from
BENCHMARK.json. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 2 without a result when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import common

sys.path.insert(0, common.SRC)


def load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "beaconpark", "cli.py")):
        print(f"error: no beaconpark sources under {common.SRC}", file=sys.stderr)
        return 2
    # The benchmark and every process it starts share one CPU. On a 2-vCPU
    # VM a round trip between two CPUs waits for the hypervisor to wake the
    # idle one: unpinned, the parking_lot rate swung by 26% between 2.5 s
    # slices of one run, pinned by 13%, and it was 50% higher.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.workload == "parking_lot":
            import parkinglot

            result = parkinglot.run(args.seed, args.seconds, bool(args.trace))
        else:
            import experiments

            exp = experiments.EXPERIMENTS[args.workload]
            result = experiments.run(exp, args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 2
    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}")
    for note in result.get("notes", []):
        print(f"{args.workload}  {note}")
    metrics = {}
    for m in declared:
        value = float(measured[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload}  {m['name']} {value:.6g} {m['unit']}")
    if not result["problems"]:
        shutil.rmtree(result["out"], ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
