"""Layered benchmark for the SWQUE reproduction: one entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-ilp [--seed 1] [--seconds 20] [--trace 0]

Workloads (see ``perfbench/README.md`` for why each was chosen):
``sim-ilp``, ``sim-mlp`` (figure grids in process), ``serve-fleet``,
``serve-local`` and ``serve-fleet-cache-hits`` (the HTTP service under
fresh + hit traffic).

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` is the separate traced run: it times the calls
into each layer and prints the per-layer metrics, including the tracing
overhead.  Either way the outputs are checked, a human-readable report
goes to standard output, and the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback

from common import ROOT, WORK, BenchError, fmt, import_repro

#: ``serve-fleet-cache-hits`` is not in BENCHMARK.json: it fails its
#: checks while the fleet's admit race stands (``servebench``).
WORKLOADS = ("sim-ilp", "sim-mlp", "serve-fleet", "serve-local",
             "serve-fleet-cache-hits")
DEFAULT_SEED = 1

#: Per-layer metric families that only one side exercises; the other side
#: reports 0 for them (the layer is not on that workload's path).
SIM_LAYERS = ("workloads.", "sim.", "pipeline.", "cpu.", "frontend.", "core.",
              "memory.", "verify.")
SERVICE_LAYERS = ("server.", "queue.", "journal.", "scheduler.", "supervisor.",
                  "loadgen.")


def _declared(traced: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    try:
        import_repro()
        declared = _declared(traced)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    if args.workload.startswith("sim-"):
        import simbench as bench
        bypassed = SERVICE_LAYERS
    else:
        import servebench as bench
        bypassed = SIM_LAYERS
    report = bench.run(args.workload, args.seed, args.seconds, traced)

    metrics = dict(report.metrics)
    if traced:
        metrics["failed_share"] = report.failed / max(1, report.attempted)
        for name in declared:
            if name.startswith(bypassed):
                metrics.setdefault(name, 0.0)
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(declared))} do not match "
            f"BENCHMARK.json"
        )
    correct = not report.problems
    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}")
    for line in report.notes:
        print(f"   {line}")
    for problem in report.problems:
        print(f"!! check failed: {problem}")
    print(f"   attempted {report.attempted}, failed {report.failed}, "
          f"failed_share {report.failed / max(1, report.attempted):.4g}")
    for name in sorted(metrics):
        raw = (f"  (as measured {fmt(report.raw[name])})"
               if report.raw.get(name, metrics[name]) != metrics[name] else "")
        print(f"   {name:<34} {fmt(metrics[name]):>14} {declared[name]}{raw}")
    if report.raw:
        print(json.dumps({"as_measured": report.raw}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]}
            for name in declared
        },
    }))
    return 0


def _terminate(signum, frame):
    # Unwind through the workloads' cleanup, which stops the service.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
