#!/usr/bin/env python3
"""Builds the vs07 benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lockstep --seed 1 --seconds 20 --trace 0

The binary is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) on first use; build output goes to stderr. The last line of
stdout is one JSON object with exactly the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json. With --trace 1 they are its per-layer metrics: the binary
runs twice, untraced and traced, and the per-layer set includes the
tracing overhead (trace.overhead.<metric> = traced minus untraced value).
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "vs07_perfbench"
# End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD_METRICS = ("setup_s", "node_cycles_per_s", "deliveries_per_s",
                    "publishes_per_s", "queries_per_s")
RUN_TIMEOUT_S = 170


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return path if path.is_absolute() else Path.cwd() / path


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: the repository sources (CMakeLists.txt "
                         "and src/) are not in this checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    BINARY], stdout=sys.stderr, check=True)
    return out / BINARY


def run_binary(binary, args, trace):
    """Runs one pass; echoes its report and returns its JSON result."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--scale", args.scale]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"perfbench: {BINARY} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def checked(metrics, wanted, what):
    """The metrics named in BENCHMARK.json, with matching units."""
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise SystemExit(f"perfbench: {what} metrics {sorted(metrics)} do not "
                         f"match BENCHMARK.json {sorted(names)}")
    out = {}
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"perfbench: bad {what} metric {m['name']}: {got}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args()

    bench = spec()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    binary = build()

    plain = run_binary(binary, args, 0)
    e2e = checked(plain["end_to_end"], bench["end_to_end"], "end-to-end")
    result = {"correct": plain["correct"], "attempted": plain["attempted"],
              "failed": plain["failed"], "metrics": e2e}
    if args.trace:
        traced = run_binary(binary, args, 1)
        layers = dict(traced["per_layer"])
        for name in OVERHEAD_METRICS:
            layers[f"trace.overhead.{name}"] = {
                "value": traced["end_to_end"][name]["value"] -
                         e2e[name]["value"],
                "unit": e2e[name]["unit"]}
            print(f"tracing overhead {name}: "
                  f"{layers[f'trace.overhead.{name}']['value']:+.6g} "
                  f"{e2e[name]['unit']}")
        result = {"correct": plain["correct"] and traced["correct"],
                  "attempted": plain["attempted"] + traced["attempted"],
                  "failed": plain["failed"] + traced["failed"],
                  "metrics": checked(layers, bench["per_layer"], "per-layer")}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
