"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the root of the repository is the one list of
workloads, metric names and units; a run prints exactly the metrics it
names.  The only constant kept here is one the manifest has no key for.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)

#: Seconds one run measures; the set-up before it is timed separately.
RUN_SECONDS = MANIFEST["run_seconds"]
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}

#: The nominal reference speed delivery latencies are scaled to.  A run
#: whose own reference pass reads ``r`` MB/s reports ``latency * r /
#: NOMINAL_REF_MB_S``: on a host (or a moment) twice as slow the raw
#: latency doubles and the scale halves, so the product stays put.
NOMINAL_REF_MB_S = 40.0
