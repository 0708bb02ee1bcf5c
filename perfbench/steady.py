#!/usr/bin/env python3
"""Steadiness runner: is every end-to-end metric steady enough for its bound?

Runs every workload of BENCHMARK.json --runs times through run.py, in
alternating order (forward on even rounds, reversed on odd ones), round r
with seed --seed + r. For each workload and end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), and the spread
(q3 - q1) / median next to the metric's bound:

    steady        spread below a third of the bound
    within bound  spread below the bound
    NOISY         spread at or above the bound

setup_s is exempt from the spread verdict, as in the benchmark's
acceptance rule: set-up runs only a few times per run, so its check is
that the median does not move past its bound between sets.

With --sets 2 or more, the whole schedule repeats with the same seeds. Each
set gets its own row per metric, with its spread and how far its median
moved in the metric's worse direction, as a share of the first set's
median (REGRESSED past the bound); the runner also checks that every
(workload, seed) printed the same fingerprint in every set.

    python3 perfbench/steady.py --runs 10 --sets 2 --out steady.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n"
                         f"{proc.stdout}")
    fingerprint = next((l.split()[1] for l in lines
                        if l.startswith("fingerprint ")), None)
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "fingerprint": fingerprint, "result": json.loads(lines[-1])}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def report(bench, runs, sets):
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in runs if r["workload"] == w]
        walls = [r["wall_s"] for r in mine]
        print(f"\n== {w}: {len(mine)} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s per run")
        print(f"  {'metric':20} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'worse':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            base = None
            for k in range(sets):
                values = [r["result"]["metrics"][name]["value"] for r in mine
                          if r["set"] == k]
                q1, med, q3, s = spread(values)
                if base is None:
                    base = med
                worse = (med - base) / base
                if m["better"] == "higher":
                    worse = -worse
                if s < bound / 3:
                    verdict = "steady"
                elif s < bound:
                    verdict = "within bound"
                else:
                    verdict = "NOISY"
                if name == "setup_s":
                    verdict += " (spread exempt)"
                elif s >= bound:
                    ok = False
                if worse > bound:
                    ok = False
                    verdict += ", REGRESSED"
                print(f"  {name:20} {k:3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{s:7.4f} {worse:+7.4f} {bound:6.3f}  {verdict}")
        prints = {}
        for r in mine:
            prints.setdefault(r["seed"], set()).add(r["fingerprint"])
        varied = [s for s, f in prints.items() if len(f) > 1]
        if varied:
            ok = False
            print(f"  FINGERPRINT differs across sets for seeds {varied}")
        elif sets > 1:
            print(f"  fingerprints identical across sets for "
                  f"{len(prints)} seeds")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", default=None,
                        help="also write every run's result to this file")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    for k in range(args.sets):
        for r in range(args.runs):
            order = names if r % 2 == 0 else names[::-1]
            for w in order:
                run = one_run(w, args.seed + r, seconds)
                run["set"] = k
                res = run["result"]
                print(f"set {k} run {r} {w} seed {args.seed + r}: "
                      f"{run['wall_s']:.1f} s, correct {res['correct']}, "
                      f"failed {res['failed']}/{res['attempted']}",
                      flush=True)
                if not res["correct"] or res["failed"]:
                    raise SystemExit("run reported a failure; see above")
                runs.append(run)
                if args.out:
                    Path(args.out).write_text(json.dumps(runs, indent=1))
    ok = report(bench, runs, args.sets)
    print("\nall spreads within bounds" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
