"""Shared machinery: the reference pass, timing helpers, spans, RSS.

Everything here is the benchmark's own code.  In particular the
*reference pass* — pyexpat with ``buffer_text=True`` and three empty
Python callbacks — is the yardstick every timing-based end-to-end
metric is divided by, so no change under ``src/`` can move it.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from xml.parsers import expat

from spec import NOMINAL_REF_MB_S

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where runs leave their span files and per-run records.
OUT_DIR = os.path.join(ROOT, ".perfbench")

clock = time.perf_counter


def repro_env() -> dict:
    """Environment for child interpreters that import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def mb(nbytes: int) -> float:
    return nbytes / 1e6


# -- the reference pass ------------------------------------------------------


def ignore(*_args):
    return None


def reference_parser():
    """pyexpat, ``buffer_text=True``, three empty Python callbacks."""
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = ignore
    parser.EndElementHandler = ignore
    parser.CharacterDataHandler = ignore
    return parser


def reference_pass(data: bytes) -> float:
    """Seconds for one reference parser over ``data``."""
    parser = reference_parser()
    start = clock()
    parser.Parse(data, True)
    return clock() - start


def reference_seconds(data: bytes) -> float:
    """One reference pass after a full collection, like the engine's."""
    gc.collect()
    return reference_pass(data)


def raw_pass(data: bytes) -> float:
    """Seconds for pyexpat with no callbacks at all over ``data``."""
    parser = expat.ParserCreate()
    parser.buffer_text = True
    start = clock()
    parser.Parse(data, True)
    return clock() - start


def scale_to_nominal(latency_ms: float, ref_mb_s: float) -> float:
    """A latency as it would read at :data:`spec.NOMINAL_REF_MB_S`: on a
    host (or a moment) twice as slow the raw latency doubles and the
    measured reference rate halves, so the product stays put."""
    return latency_ms * ref_mb_s / NOMINAL_REF_MB_S


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5 - 1e-9)))
    return ordered[min(rank, len(ordered)) - 1]


def weighted_percentile(pairs: Sequence[Tuple[float, int]], q: float
                        ) -> float:
    """:func:`percentile` of ``(value, count)`` pairs, as if each value
    occurred ``count`` times."""
    ordered = sorted(pairs)
    total = sum(n for _v, n in ordered)
    if not total:
        raise ValueError("percentile of no values")
    rank = max(1, int(round(q / 100.0 * total + 0.5 - 1e-9)))
    seen = 0
    for value, n in ordered:
        seen += n
        if seen >= rank:
            return value
    return ordered[-1][0]


def timed(fn: Callable, *args):
    """``(seconds, result)`` for one call, after a full collection."""
    gc.collect()
    start = clock()
    result = fn(*args)
    return clock() - start, result


def attempt(outcome: "Outcome", what: str, fn: Callable, *args):
    """:func:`timed`, where an exception is a failed operation.

    Returns ``(seconds, result)``, or None after recording the failure.
    """
    try:
        return timed(fn, *args)
    except Exception as exc:  # noqa: BLE001 - reported, not hidden
        outcome.attempted += 1
        outcome.fail("%s raised %s: %s" % (what, type(exc).__name__, exc))
        return None


def reset_peak_rss() -> None:
    """Start a new peak-RSS window here, so set-up work of the
    benchmark's own (corpus generation, oracle loading) is not counted
    (Linux: writing 5 to ``clear_refs`` resets ``VmHWM``).  Without the
    reset the peak would include that work, so the run stops."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """This process's peak RSS since :func:`reset_peak_rss`, in MB.

    ``VmHWM``, not ``getrusage``: the latter also keeps the high-water
    mark the process inherited at ``exec`` from whatever launched it.
    """
    peak = process_peak_rss_mb(os.getpid())
    if peak is None:
        raise RuntimeError("no VmHWM in /proc/self/status")
    return peak


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak RSS of another live process (Linux ``VmHWM``), in MB."""
    try:
        with open("/proc/%d/status" % pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def children_peak_rss_mb() -> float:
    """Highest ``VmHWM`` among this process's live children, in MB
    (0 when there are none)."""
    peak = 0.0
    for tid in os.listdir("/proc/self/task"):
        try:
            with open("/proc/self/task/%s/children" % tid) as fh:
                pids = fh.read().split()
        except OSError:
            continue
        for pid in pids:
            peak = max(peak, process_peak_rss_mb(int(pid)) or 0.0)
    return peak


def with_children_peak_rss(fn: Callable, *args):
    """``(peak MB, result)`` of ``fn(*args)``: a thread samples the
    children's ``VmHWM`` every millisecond meanwhile.  ``VmHWM`` only
    grows, so a child's last sample before it exits is close to its
    peak."""
    peak = [0.0]
    done = threading.Event()

    def sample():
        while not done.is_set():
            peak[0] = max(peak[0], children_peak_rss_mb())
            done.wait(0.001)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        result = fn(*args)
    finally:
        done.set()
        sampler.join()
    return peak[0], result


# -- set-up time in fresh interpreters --------------------------------------------


def fresh_setup_seconds(script: str, runs: int
                        ) -> Tuple[List[float], List[str]]:
    """Time ``runs`` fresh interpreters, each executing ``script``.

    The script starts with :data:`SETUP_PRELUDE` and must print, as
    its last line, the seconds since ``t0`` at the end of its set-up.
    One unmeasured interpreter runs first, so byte-code compilation of
    a fresh checkout is not counted.  Returns the seconds of those that
    succeeded and a message, with its standard error, for each that
    failed.
    """
    results, failures = [], []
    for index in range(runs + 1):
        proc = subprocess.run([sys.executable, "-c", script],
                              env=repro_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            failures.append("set-up interpreter exited with code %d: %s"
                            % (proc.returncode, proc.stderr[-2000:]))
        elif index:
            results.append(float(proc.stdout.strip().splitlines()[-1]))
    return results, failures


#: Starts the clock before ``import repro`` in a set-up interpreter.
SETUP_PRELUDE = "import time\nt0 = time.perf_counter()\nimport repro\n"


# -- spans -----------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the system's layers.

    ``span(name, doc=...)`` is a context manager; a disabled tracer's
    spans cost one attribute test.  Spans are written out once, by
    :meth:`dump`, when the run ends.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, doc=None):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {"id": index, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "doc": doc, "start": clock(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = clock()

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count and self time (children subtracted)."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += (record["end"]
                                                 - record["start"])
        table: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            row = table.setdefault(record["name"],
                                   {"count": 0, "self_s": 0.0})
            row["count"] += 1
            row["self_s"] += (record["end"] - record["start"]
                              - child_time[record["id"]])
        return table

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# -- one run's outcome -------------------------------------------------------------


class Outcome:
    """What a workload run hands back to ``run.py``.

    ``metrics`` holds the end-to-end values, ``layers`` the per-layer
    values measured along the way, and ``attempted``/``failed`` count
    operations: every pass, document or delivery whose result is
    checked.  ``check`` is the one place a result meets its oracle.
    """

    def __init__(self):
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, what: str, got, expected) -> bool:
        self.attempted += 1
        if got == expected:
            return True
        self.fail("%s: result differs from the oracle" % what)
        return False

    def check_each(self, what: str, got: list, expected: list) -> None:
        """One check per document of a multi-document result."""
        if len(got) != len(expected):
            self.attempted += len(expected)
            self.fail("%s: %d documents' results for %d documents"
                      % (what, len(got), len(expected)))
            return
        for index, (one, want) in enumerate(zip(got, expected)):
            self.check("%s [document %d]" % (what, index), one, want)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
