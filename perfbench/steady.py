"""Steadiness check: repeat each workload over several seeds and print, per
end-to-end metric, the median, the quartiles and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --workload sweep-small --runs 5 --first-seed 11

A spread below a third of the bound is steady; above the bound the metric
cannot resolve a regression of that size.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    steady = True
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = perf_counter()
            res = run_once(workload, seed, args.seconds)
            wall_s = perf_counter() - t0
            results.append(res)
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} wall_s={wall_s:.1f} correct={res['correct']} failed={res['failed']}/{res['attempted']} {shown}",
                  flush=True)
            steady &= res["correct"]
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                steady = False
            print(f"{name:18} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f}  {verdict}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
