"""Measure how large a share of a short job the service's overhead is.

Usage, from the repository root::

    python3 perfbench/calibrate.py [--jobs 12]

The serve workloads run short jobs so that the service's own per-job
costs (admit, intake, claim, fork dispatch, commit, result poll) are a
visible share of a job's latency.  This script measures, on each
service stack started as the benchmark starts it and otherwise idle,

* the service's overhead per lone job: submit → result in hand, minus
  the same spec simulated in this process;
* the in-process simulation time of jobs of 1k to 6k instructions,
  fitted as a fixed cost plus a cost per instruction;

and prints each stack's overhead as a share of a lone job's latency for
each job size by that fit.  ``perfbench/README.md`` records the figures
behind the serve workloads' job size.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

SIZES = range(1000, 7000, 1000)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=12)
    args = parser.parse_args(argv)

    from common import WORK, import_repro, median

    import_repro()
    from repro.service.client import ServiceClient
    from repro.sim.simulator import simulate

    import servebench as sb

    def simulate_s(spec: dict) -> float:
        t0 = time.perf_counter()
        simulate(spec["workload"], spec["policy"],
                 num_instructions=spec["num_instructions"], seed=spec["seed"])
        return time.perf_counter() - t0

    WORK.mkdir(exist_ok=True)
    overhead = {}
    for kind in ("fleet", "local"):
        root = WORK / f"calibrate-{kind}"
        shutil.rmtree(root, ignore_errors=True)
        stack = sb.Stack(kind, root, sb.cpu_count(), traced=False)
        lone, compute = [], []
        try:
            stack.start()
            client = ServiceClient(stack.url, timeout=60.0)
            for k in range(args.jobs):
                spec = sb._specs([sb._seed_for(0, 1, k)])[k % 4]
                t0 = time.perf_counter()
                sb.submit_and_wait(client, spec)
                lone.append(time.perf_counter() - t0)
                compute.append(simulate_s(spec))
        finally:
            stack.stop()
            shutil.rmtree(root, ignore_errors=True)
        overhead[kind] = median([a - b for a, b in zip(lone, compute)])
        print(f"{kind}: lone {sb.JOB_INSTRUCTIONS}-instruction job "
              f"{median(lone):.3f} s submit -> result, {median(compute):.3f} s "
              f"simulating in process: overhead {overhead[kind]:.3f} s")
    points = []
    for size in SIZES:
        for spec in sb._specs([sb._seed_for(0, 2, size), sb._seed_for(0, 3, size)]):
            spec["num_instructions"] = size
            points.append((size, simulate_s(spec)))
    # Least-squares line: seconds = fixed + per_instr * size.
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    per_instr = (sum((x - mx) * (y - my) for x, y in points)
                 / sum((x - mx) ** 2 for x, _ in points))
    fixed = my - per_instr * mx
    print(f"simulation: {fixed:.3f} s fixed + {per_instr * 1e6:.1f} ms per "
          f"1k instructions (least squares over {n} runs)")
    for size in SIZES:
        compute = fixed + per_instr * size
        shares = ", ".join(f"{kind} {cost / (cost + compute):.0%}"
                           for kind, cost in overhead.items())
        print(f"{size}-instruction job: {compute:.3f} s simulating; overhead "
              f"share of a lone job's latency: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
