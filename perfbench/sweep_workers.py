"""Reference figure: the ray sweep on one worker beside the default thread pool.

    python3 perfbench/sweep_workers.py

Draws the boxes and direction fans of one `raysweep` pass (seed 0) and times
`ray_sweep` on them with `max_workers=1` and with the default pool
(min(rays, 8) threads), alternating the two, and prints each side's median
wall time over five rounds, after one warm-up round.  This calls the
raybeam module directly; it is not one of the benchmark's workloads.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import references as ref  # noqa: E402
from momentphase.conditioning import MultiMoments  # noqa: E402
from momentphase.raybeam import ray_sweep  # noqa: E402
from workloads import RAY_BUDGET, RAY_CONFIG, RAY_DELTA, RAY_GRID, RAY_ORDER, WORKLOADS  # noqa: E402

SEED = 0
REPEATS = 5


def main() -> int:
    calls = []
    for job in WORKLOADS["raysweep"].make_pass(np.random.default_rng([SEED, 0])):
        gamma = MultiMoments.from_dict(2, RAY_ORDER, ref.box_moments(job.params["box"], RAY_ORDER))
        calls.append((gamma, job.params["directions"]))
    kwargs = dict(
        window=tuple(RAY_CONFIG["window"]), span=RAY_CONFIG["span"],
        grid_size=RAY_GRID, delta=RAY_DELTA, max_sweeps=RAY_BUDGET,
    )
    times: dict[str, list[float]] = {"one worker": [], "default pool": []}
    for repeat in range(REPEATS + 1):
        order = ["one worker", "default pool"] if repeat % 2 else ["default pool", "one worker"]
        for side in order:
            t0 = time.perf_counter()
            for gamma, dirs in calls:
                ray_sweep(gamma, dirs, max_workers=1 if side == "one worker" else None, **kwargs)
            if repeat:  # the first round warms up
                times[side].append(time.perf_counter() - t0)
    rays = sum(len(d) for _, d in calls)
    print(f"{len(calls)} calls, {rays} rays, nproc {os.cpu_count()}, {REPEATS} repeats")
    for side, values in times.items():
        print(f"{side:13s} median {statistics.median(values):.3f} s  (min {min(values):.3f}, max {max(values):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
