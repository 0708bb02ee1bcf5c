#!/usr/bin/env python3
"""Runs one bench with --json RECORD and checks its wall clock.

The bench is timed from outside, around the whole process. Its record's
host.wall_clock_seconds must cover that run: a value below
0.9 x the external time - 0.05 s means the bench started its clock late
(after part of its work) and under-reports what it cost. Exits with the
bench's status if it fails, 1 if the record under-reports, 0 otherwise.

Usage: run_timed_bench.py RECORD COMMAND [ARG...]
  e.g. run_timed_bench.py out/realnet_coverage.json \\
           build/realnet_coverage --quick --threads 2
"""
import json
import subprocess
import sys
import time


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    record, command = argv[1], argv[2:]
    start = time.monotonic()
    status = subprocess.run(command + ["--json", record]).returncode
    external = time.monotonic() - start
    if status != 0:
        return status
    with open(record) as handle:
        recorded = json.load(handle)["host"]["wall_clock_seconds"]
    floor = 0.9 * external - 0.05
    print(f"{record}: host.wall_clock_seconds={recorded:.3f}s, "
          f"externally timed {external:.3f}s")
    if recorded < floor:
        print(f"{record}: host.wall_clock_seconds {recorded:.3f}s is below "
              f"0.9 x {external:.3f}s - 0.05s = {floor:.3f}s",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
