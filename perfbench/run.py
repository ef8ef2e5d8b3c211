#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pull-child --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run: spans around every layer
call, the per-layer metrics, and a self-time table per layer.  Both
check every result against an oracle.  Human-readable lines go to
standard output first; the last line is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The workloads and the metric names and units are those of
``BENCHMARK.json`` (read by ``spec.py``).  See ``perfbench/README.md``
for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh interpreters timed for ``setup_s`` (median reported).
SETUP_RUNS = 7


def parse_args(argv=None):
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def measure(args, tracer):
    """Run the workload; returns its :class:`common.Outcome`."""
    import common

    workload, seed, quick = args.workload, args.seed, args.quick
    if workload in ("pull-child", "pull-closure"):
        import oracle
        import pull

        case = pull.case_for(workload, seed, quick)
        setup, setup_failures = common.fresh_setup_seconds(
            common.SETUP_PRELUDE + pull.setup_script(case), SETUP_RUNS)
        expected = oracle.load(workload, seed, quick)
        outcome = pull.run(workload, case, expected, args.seconds, tracer)
    elif workload == "bulk-small":
        import bulk
        import corpora
        import oracle

        groups = corpora.bulk_small(seed, quick)
        setup, setup_failures = common.fresh_setup_seconds(
            common.SETUP_PRELUDE + bulk.setup_script(groups), SETUP_RUNS)
        expected = oracle.load(workload, seed, quick)
        outcome = bulk.run(groups, expected, args.seconds, tracer)
    else:
        import fanout

        outcome, setup = fanout.run(seed, quick, args.seconds, tracer)
        setup_failures = []
    # Each set-up interpreter is an attempted operation; one that failed
    # counts as failed and is left out of the median.
    outcome.attempted += len(setup) + len(setup_failures)
    for message in setup_failures:
        outcome.fail(message)
    if setup:
        outcome.metrics["setup_s"] = statistics.median(setup)
    outcome.layers["setup.samples_s"] = setup
    return outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    import spec

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from the root of a "
              "full checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))
    import common

    tracer = common.Tracer(enabled=bool(args.trace))
    started = time.time()
    if args.trace:
        import layers

        outcome = layers.traced_run(args, measure, tracer)
        names = spec.PER_LAYER_UNITS
    else:
        outcome = measure(args, tracer)
        names = spec.END_TO_END_UNITS
    outcome.layers["fail_frac"] = outcome.failed / max(1, outcome.attempted)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "wall_s": time.time() - started,
              "metrics": outcome.metrics, "layers": outcome.layers,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "failures": outcome.failures}
    os.makedirs(common.OUT_DIR, exist_ok=True)
    with open(os.path.join(common.OUT_DIR, "last-%s-trace%d.json"
                           % (args.workload, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    for message in outcome.failures:
        print("FAIL %s" % message)
    for name, value in sorted(outcome.layers.items()):
        print("# %s = %s" % (name, value))
    values = outcome.layers if args.trace else outcome.metrics
    missing = [name for name in names if name not in values]
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in names.items()}
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
