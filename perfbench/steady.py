"""Steadiness of the benchmark: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10]

Runs the command in BENCHMARK.json, with its `run_seconds`, `--runs` times
per workload for each of two sets, A and B, interleaved (A then B, then B
then A, ...), each run with its own seed (set A seeds 0.., set B seeds
100..).  For every end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median), and the gap
between the two medians, next to the metric's bound.  A spread under a third
of the bound is the target; a spread over the bound, or a gap over the
bound, fails.  The exit code is 1 if any test fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                seed = i if s == "A" else 100 + i
                r = one_run(bench["command"], w, seed, bench["run_seconds"])
                results[w][s].append(r)
                print(f"run {i} {w} set {s} seed {seed}: wall {r['wall_s']:.1f} s, "
                      f"attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}, "
                      + ", ".join(f"{k} {v['value']:.5g}" for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':11s} {'metric':12s} {'set':3s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'gap':>7s} {'bound':>6s}")
    for w in workloads:
        for metric, bound in bounds.items():
            med = {}
            for s in "AB":
                values = [r["metrics"][metric]["value"] for r in results[w][s]]
                med[s], q1, q3 = summary(values)
                spread = (q3 - q1) / med[s]
                flag = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "FAIL")
                ok &= spread <= bound
                gap = (med["B"] - med["A"]) / med["A"] if s == "B" else None
                if gap is not None:
                    ok &= abs(gap) <= bound
                    flag += "" if abs(gap) <= bound else " GAP"
                print(f"{w:11s} {metric:12s} {s:3s} {med[s]:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {'' if gap is None else f'{gap:+7.3f}':>7s} {bound:6.3f} {flag}")
        shares = {s: {r["failed"] / r["attempted"] for r in results[w][s]} for s in "AB"}
        walls = [r["wall_s"] for s in "AB" for r in results[w][s]]
        same = len(shares["A"] | shares["B"]) == 1
        correct = all(r["correct"] for s in "AB" for r in results[w][s])
        ok &= same and correct
        print(f"{w:11s} failed share {sorted(shares['A'] | shares['B'])} "
              f"({'same in every run' if same else 'DIFFERS'}); "
              f"{'correct in every run' if correct else 'INCORRECT RUNS'}; "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
