"""The serve-fanout workload: ``xsq serve`` in its own process.

The benchmark launches the real server (``python3 -m repro serve``),
opens one subscriber connection holding 50 subscriptions (half child,
half ``//`` paths, each picking the items of one category) and one
feeder connection, and streams seeded news-feed documents in 512-byte
chunk ops:

* **closed loop** — each document is sent only after the previous
  document's ``close`` acknowledgement; reference passes over the same
  document bracket it, as in ``pull.py``.
* **open loop** — chunks are sent at fixed times, at a share of the
  reference rate measured just before, without waiting for anything.
  A result is timed from the *scheduled* send time of the chunk that
  determined it, scaled by the reference rate around the segment to
  :data:`spec.NOMINAL_REF_MB_S`.  Each segment of documents goes out
  ``REPEATS`` times on the same schedule, and a result's latency is the
  least over the repeats.

During the closed loop the server and this process share one CPU, so
the reference passes run on the core that serves.

Which chunk determines which result comes from the oracle: an
in-process :class:`repro.CompiledQuerySet` push session fed the same
chunks.  Every subscription's deliveries must equal its results there.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

import repro

import corpora
from common import (Outcome, ROOT, clock, mb, percentile,
                    process_peak_rss_mb, reference_pass,
                    repro_env, scale_to_nominal)

CHUNK = 512
#: Documents per open-loop segment, sent REPEATS times each; at least
#: MIN_DOCS closed-loop documents and MIN_SEGMENTS segments per run.
SEGMENT_DOCS = 3
REPEATS = 3
MIN_DOCS = 3
MIN_SEGMENTS = 3
#: Open-loop offered rate as a share of the reference rate.
OPEN_LOOP_SHARE = 0.002
#: Server launches timed for ``setup_s``; the last one is measured.
SETUP_LAUNCHES = 5
CLOSED_SHARE = 0.35
TIMEOUT = 60.0

HOST = "127.0.0.1"


class Server:
    """One ``xsq serve`` child process on an ephemeral port."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"], cwd=ROOT,
            env=repro_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("xsq serve exited before listening")
        self.port = json.loads(line)["port"]

    def peak_rss_mb(self) -> Optional[float]:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _line(op: dict) -> bytes:
    return (json.dumps(op, separators=(",", ":")) + "\n").encode()


class Session:
    """The feeder and subscriber connections of one measured server."""

    def __init__(self, server: Server, queries: List[str]):
        self.server = server
        self.queries = queries
        self.sid_index: Dict[str, int] = {}
        #: Per subscription: ``(value, receive time)`` in arrival order.
        self.received: List[List[tuple]] = [[] for _ in queries]
        #: Lines read but not yet parsed, with their receive times:
        #: parsing waits until a phase ends, so the reader task stays
        #: light and does not make the generator late.
        self._raw: List[tuple] = []
        self.dropped = 0
        self.errors: List[str] = []
        self._reader_task = None

    async def open(self) -> None:
        port = self.server.port
        self.sub_r, self.sub_w = await asyncio.open_connection(
            HOST, port, limit=1 << 22)
        self.feed_r, self.feed_w = await asyncio.open_connection(
            HOST, port, limit=1 << 22)
        self.sub_w.write(b"".join(_line({"op": "subscribe", "query": q})
                                  for q in self.queries))
        await self.sub_w.drain()
        for index in range(len(self.queries)):
            ack = json.loads(await asyncio.wait_for(
                self.sub_r.readline(), TIMEOUT))
            if not ack.get("ok"):
                raise RuntimeError("subscribe refused: %r" % (ack,))
            self.sid_index[ack["sub"]] = index
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_results())

    async def _read_results(self) -> None:
        readline = self.sub_r.readline
        raw = self._raw
        while True:
            line = await readline()
            if not line:
                return
            raw.append((line, clock()))

    def _parse(self) -> None:
        count = len(self._raw)
        lines = self._raw[:count]
        del self._raw[:count]
        for line, when in lines:
            message = json.loads(line)
            event = message.get("event")
            if event == "result":
                self.received[self.sid_index[message["sub"]]].append(
                    (message["value"], when))
            elif event == "dropped":
                self.dropped += message["n"]
            elif not message.get("ok", True):
                self.errors.append(str(message))

    async def close_ack(self) -> float:
        """Wait for the feeder's next ``close`` acknowledgement."""
        while True:
            message = json.loads(await asyncio.wait_for(
                self.feed_r.readline(), TIMEOUT))
            if message.get("op") == "close":
                if not message.get("ok"):
                    self.errors.append(str(message))
                return clock()
            if not message.get("ok", True):
                self.errors.append(str(message))

    async def wait_for(self, counts: List[int]) -> bool:
        """Wait until each subscription received ``counts[i]`` results."""
        deadline = clock() + TIMEOUT
        while clock() < deadline:
            self._parse()
            if all(len(r) >= n for r, n in zip(self.received, counts)):
                return True
            await asyncio.sleep(0.002)
        return False

    async def shutdown(self) -> None:
        for writer in (self.feed_w, self.sub_w):
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        if self._reader_task is not None:
            try:
                await asyncio.wait_for(self._reader_task, TIMEOUT)
            except asyncio.TimeoutError:
                self._reader_task.cancel()


class Plan:
    """Documents, their chunk ops, and the oracle's attribution."""

    def __init__(self, docs: List[bytes], queries: List[str]):
        self.docs = docs
        self.chunks = [corpora.chunked(d, CHUNK) for d in docs]
        self.ops = [[_line({"op": "chunk", "data": c.decode()})
                     for c in chunks] for chunks in self.chunks]
        self.close_op = _line({"op": "close"})
        #: expected[doc][sub]: [(value, chunk index within the doc)].
        self.expected = []
        queryset = repro.compile(queries)
        for chunks in self.chunks:
            per_sub = [[] for _ in queries]
            session = queryset.push()
            last = len(chunks) - 1
            for index, chunk in enumerate(chunks):
                values = session.feed(chunk)
                if index == last:
                    values = values + session.finish()
                for sub, value in values:
                    per_sub[sub].append((value, index))
            self.expected.append(per_sub)

    def counts(self, docs) -> List[int]:
        n = len(self.expected[0])
        return [sum(len(self.expected[d][s]) for d in docs) for s in range(n)]


def _least_reference(data: bytes) -> float:
    """Least of three reference passes over one small document:
    interference only ever adds time, and one pass is under a
    millisecond."""
    return min(reference_pass(data) for _ in range(3))


def _reference_mb_s(docs: List[bytes]) -> float:
    """Median of three reference passes over ``docs``, in MB/s."""
    seconds = statistics.median(
        sum(reference_pass(d) for d in docs) for _ in range(3))
    return mb(sum(map(len, docs))) / seconds


async def _closed_pass(session: Session, plan: Plan, docs) -> float:
    writer = session.feed_w
    start = clock()
    for d in docs:
        writer.write(b"".join(plan.ops[d]) + plan.close_op)
        await writer.drain()
        await session.close_ack()
    return clock() - start


async def _open_segment(session: Session, plan: Plan, docs, rate: float,
                        late_ms: List[float]):
    """Send ``docs`` on schedule; returns per-chunk due times and the
    segment's offered and actual durations."""
    writer = session.feed_w
    start = clock() + 0.005
    sent = 0
    due_of = {}
    due = start
    for d in docs:
        for index, op in enumerate(plan.ops[d]):
            due = start + sent / rate
            wait = due - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            late_ms.append(max(0.0, clock() - due) * 1e3)
            if index == len(plan.ops[d]) - 1:
                op = op + plan.close_op
            writer.write(op)
            due_of[(d, index)] = due
            sent += len(plan.chunks[d][index])
        await writer.drain()
    for _ in docs:
        finished = await session.close_ack()
    return due_of, due - start, finished - start


def _check(out: Outcome, session: Session, plan: Plan, docs,
           offsets: List[int]) -> List[List[tuple]]:
    """Compare the deliveries for ``docs`` with the oracle.

    ``offsets[s]`` is how many of subscription ``s``'s deliveries
    earlier phases used.  Returns, per subscription and expected
    delivery, ``(receive time, doc, chunk index)``, or None where the
    delivery was missing or wrong.
    """
    matched = []
    for sub in range(len(plan.expected[0])):
        want = [(value, d, index) for d in docs
                for value, index in plan.expected[d][sub]]
        got = session.received[sub][offsets[sub]:offsets[sub] + len(want)]
        offsets[sub] += len(want)
        times = []
        for position, (value, d, index) in enumerate(want):
            out.attempted += 1
            if position >= len(got):
                out.fail("serve sub %d: delivery %d missing" % (sub, position))
                times.append(None)
            elif got[position][0] != value:
                out.fail("serve sub %d: delivery %d differs from the "
                         "in-process push" % (sub, position))
                times.append(None)
            else:
                times.append((got[position][1], d, index))
        matched.append(times)
    return matched


async def _measure(session: Session, plan: Plan, out: Outcome,
                   seconds: float, tracer) -> None:
    n_docs = len(plan.docs)
    offsets = [0] * len(session.queries)
    cursor = 0

    def take(k):
        nonlocal cursor
        docs = [(cursor + i) % n_docs for i in range(k)]
        cursor += k
        return docs

    # Closed loop: one document at a time, bracketed by reference
    # passes over that document.  The server and this process share one
    # CPU here, so the reference passes run on the core that serves:
    # the client only waits for acknowledgements meanwhile.
    allowed = os.sched_getaffinity(0)
    pinned = {min(allowed)}
    os.sched_setaffinity(0, pinned)
    os.sched_setaffinity(session.server.proc.pid, pinned)
    ratios, abs_rates = [], []
    deadline = clock() + seconds * CLOSED_SHARE
    passes = 0
    sent = []
    while passes < MIN_DOCS or clock() < deadline:
        passes += 1
        docs = take(1)
        sent += docs
        data = plan.docs[docs[0]]
        with tracer.span("reference", doc="closed:%d" % passes):
            before = _least_reference(data)
        with tracer.span("serve.closed_doc", doc="closed:%d" % passes):
            dt = await _closed_pass(session, plan, docs)
        with tracer.span("reference", doc="closed:%d" % passes):
            after = _least_reference(data)
        ratios.append((before + after) / 2 / dt)
        abs_rates.append(mb(len(data)) / dt)
    if not await session.wait_for(
            [o + c for o, c in zip(offsets, plan.counts(sent))]):
        out.fail("serve: closed-loop deliveries timed out")
    _check(out, session, plan, sent, offsets)
    os.sched_setaffinity(session.server.proc.pid, allowed)
    os.sched_setaffinity(0, allowed)
    out.metrics["throughput_rel"] = statistics.median(ratios)
    out.layers["abs.throughput_mb_s"] = statistics.median(abs_rates)
    out.layers["serve.closed_docs"] = passes

    # Open loop, in segments: each segment's documents go out REPEATS
    # times on the same schedule, and a result's latency is the least
    # over the repeats — a scheduling hiccup (in the server or in this
    # generator) that hit one repeat does not read as a slow server, a
    # result that is slow every time does.
    latencies, every_repeat, late_ms, shares, offered = [], [], [], [], []
    deadline = clock() + seconds * (1 - CLOSED_SHARE)
    segments = 0
    while segments < MIN_SEGMENTS or clock() < deadline:
        segments += 1
        docs = take(SEGMENT_DOCS)
        data = [plan.docs[d] for d in docs]
        samples: List[List[float]] = []
        for repeat in range(REPEATS):
            before = _reference_mb_s(data)
            with tracer.span("serve.open_segment",
                             doc="open:%d:%d" % (segments, repeat)):
                due_of, offered_s, actual_s = await _open_segment(
                    session, plan, docs, OPEN_LOOP_SHARE * before * 1e6,
                    late_ms)
            if not await session.wait_for(
                    [o + c for o, c in zip(offsets, plan.counts(docs))]):
                out.fail("serve: open-loop deliveries timed out")
            ref_mb_s = (before + _reference_mb_s(data)) / 2
            flat = [None if hit is None else scale_to_nominal(
                        (hit[0] - due_of[hit[1:]]) * 1e3, ref_mb_s)
                    for per_sub in _check(out, session, plan, docs, offsets)
                    for hit in per_sub]
            if not samples:
                samples = [[] for _ in flat]
            for bucket, value in zip(samples, flat):
                if value is not None:
                    bucket.append(value)
            shares.append(offered_s / actual_s)
            offered.append(mb(sum(map(len, data))) / offered_s)
        latencies.extend(min(b) for b in samples if b)
        every_repeat.extend(v for b in samples for v in b)
    out.metrics["stream_rel"] = statistics.median(shares)
    out.metrics["delivery_p50_ref_ms"] = statistics.median(latencies)
    out.metrics["delivery_p99_ref_ms"] = percentile(latencies, 99)
    out.layers["abs.stream_mb_s"] = statistics.median(offered)
    out.layers["delivery.samples"] = len(latencies)
    out.layers["delivery.p99_all_ref_ms"] = percentile(every_repeat, 99)
    out.layers["loadgen.late_p99_ms"] = percentile(late_ms, 99)
    out.layers["loadgen.offered_mb_s"] = statistics.median(offered)
    out.layers["server.dropped"] = session.dropped
    out.layers["serve.open_segments"] = segments
    for error in session.errors:
        out.fail("serve: %s" % error)


async def closed_probe(queries: List[str], docs: List[bytes], reps: int):
    """Push ``docs`` through a fresh server ``reps`` times, closed loop.

    Returns ``(median seconds per pass, dropped results, errors)``;
    missing deliveries count as errors.
    """
    _seconds, server, session = await _launch(queries)
    try:
        plan = Plan(docs, queries)
        every = list(range(len(docs)))
        times = [await _closed_pass(session, plan, every)
                 for _ in range(reps)]
        arrived = await session.wait_for(
            [n * reps for n in plan.counts(every)])
        return (statistics.median(times), session.dropped,
                len(session.errors) + (not arrived))
    finally:
        await session.shutdown()
        server.stop()


async def _launch(queries) -> tuple:
    """Start a server and subscribe; returns ``(seconds, server,
    session)``."""
    start = clock()
    server = Server()
    session = Session(server, queries)
    try:
        await session.open()
    except BaseException:
        server.stop()
        raise
    return clock() - start, server, session


async def _run(seed: int, quick: bool, seconds: float, tracer):
    queries = corpora.serve_queries()
    plan = Plan(corpora.serve_documents(seed, 16 if quick else 40, quick),
                queries)
    # Warm the byte-code cache of the server modules, unmeasured.
    subprocess.run([sys.executable, "-c", "import repro.cli, repro.serve"],
                   cwd=ROOT, env=repro_env(), check=True, timeout=120)
    setup = []
    server = session = None
    for _ in range(SETUP_LAUNCHES):
        if server is not None:
            await session.shutdown()
            server.stop()
        with tracer.span("serve.launch"):
            seconds_taken, server, session = await _launch(queries)
        setup.append(seconds_taken)
    out = Outcome()
    try:
        await _measure(session, plan, out, seconds, tracer)
        out.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        await session.shutdown()
        server.stop()
    return out, setup


def run(seed: int, quick: bool, seconds: float, tracer):
    """Returns ``(outcome, setup seconds per launch)``."""
    return asyncio.run(_run(seed, quick, seconds, tracer))
