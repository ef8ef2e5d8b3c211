"""The traced run: spans around every layer call, per-layer metrics.

``--trace 1`` runs the workload itself for half of ``--seconds`` with
spans around its API calls, then times each layer of the system from
outside, through that layer's public functions, on inputs built from
the same seed before the clock starts.  No span is recorded inside
``src/``; every span here wraps a call the benchmark makes.

Each layer is measured on every workload, on that workload's own
documents and queries (a first slice of them, so the suite fits its
time), which is what lets a change claim one metric on one workload and
show where the saving landed.  Where none of a workload's queries lowers
to the compiled tier, the codegen layer times the corpus's child-only
probe query (``corpora.PROBE_QUERIES``) as well, so its timings always
exist; ``codegen.tier_frac`` counts the workload's own queries only.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import statistics
from typing import Dict, List, Tuple

import repro
from repro.output import ResultWriter
from repro.serve.broker import SubscriptionBroker
from repro.streaming import PushEventParser, parse_events
from repro.streaming.sax_source import parse_events_batched
from repro.xpath import parse_query
from repro.xsq.codegen import compile_kernel
from repro.xsq.compile_cache import HpdtCache, compile_hpdt
from repro.xsq.fastpath import FastRuntime, TagTable, compile_fastplan

import corpora
from common import OUT_DIR, clock, mb, raw_pass, reference_pass

#: ``(corpus, [query, ...], [document, ...])`` — one layer input.
LayerInput = Tuple[str, List[str], List[bytes]]

REPS = 3
CHUNK = 8192
#: Bytes of each corpus the layer suite uses.
SLICE_BYTES = 500_000


def _slice(docs: List[bytes]) -> List[bytes]:
    out, total = [], 0
    for data in docs:
        if out and total + len(data) > SLICE_BYTES:
            break
        out.append(data)
        total += len(data)
    return out


def layer_inputs(workload: str, seed: int, quick: bool
                 ) -> List[LayerInput]:
    if workload in ("pull-child", "pull-closure"):
        import pull

        return [(name, queries, _slice(docs))
                for name, docs, queries in pull.case_for(workload, seed,
                                                         quick)]
    if workload == "bulk-small":
        kinds = ("shake", "dblp", "recursive")
        return [(kind, [query], _slice(docs)[:40]) for kind, (query, docs)
                in zip(kinds, corpora.bulk_small(seed, quick))]
    docs = corpora.serve_documents(seed, 4, quick)
    return [("feed", corpora.serve_queries(), docs)]


class LayerSuite:
    """Times every layer over ``inputs``; results land in ``values``."""

    def __init__(self, inputs: List[LayerInput], tracer, outcome):
        self.inputs = inputs
        self.tracer = tracer
        self.outcome = outcome
        self.values: Dict[str, float] = {}
        self.total_bytes = sum(len(d) for _k, _q, docs in inputs
                               for d in docs)

    def run(self) -> Dict[str, float]:
        for step in (self.calibration, self.streaming, self.compile,
                     self.codegen, self.matcher, self.broker, self.server,
                     self.pool, self.output):
            step()
        return self.values

    def _median_time(self, fn, reps: int = REPS) -> Tuple[float, object]:
        """Median seconds of ``reps`` calls, and the last good result.

        Each call is one attempted operation; one that raises counts as
        failed and is left out of the timing.  When every call fails
        the layer has no figure and the run stops.
        """
        times, result = [], None
        for _ in range(reps):
            self.outcome.attempted += 1
            start = clock()
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001 - reported, not hidden
                self.outcome.fail("layer call raised %s: %s"
                                  % (type(exc).__name__, exc))
                continue
            times.append(clock() - start)
        if not times:
            raise RuntimeError("every call of a layer probe failed")
        return statistics.median(times), result

    # -- reference and parser layers ------------------------------------------

    def _rate(self, span: str, per_doc) -> float:
        """MB/s of ``per_doc`` over every document, median of REPS."""
        docs = [d for _k, _q, ds in self.inputs for d in ds]

        def once():
            with self.tracer.span(span):
                for data in docs:
                    per_doc(data)

        seconds, _ = self._median_time(once)
        return mb(self.total_bytes) / seconds

    def calibration(self) -> None:
        self.values["calib.raw_mb_s"] = self._rate("reference.raw", raw_pass)
        self.values["calib.callbacks_mb_s"] = self._rate(
            "reference", reference_pass)

    def streaming(self) -> None:
        def batches(data):
            for _batch in parse_events_batched(data, TagTable()):
                pass

        def push(data):
            parser = PushEventParser()
            for start in range(0, len(data), CHUNK):
                parser.feed(data[start:start + CHUNK])
            parser.finish()

        self.values["streaming.batches_mb_s"] = self._rate(
            "streaming.batches", batches)
        self.values["streaming.events_mb_s"] = self._rate(
            "streaming.events", lambda data: list(parse_events(data)))
        self.values["streaming.push_mb_s"] = self._rate(
            "streaming.push", push)
        self.values["streaming.events"] = sum(
            len(list(parse_events(d))) for _k, _q, ds in self.inputs
            for d in ds)

    # -- compilation ------------------------------------------------------------

    def _queries(self) -> List[str]:
        return [q for _k, queries, _d in self.inputs for q in queries]

    def compile(self) -> None:
        queries = self._queries()
        parsed = [parse_query(q) for q in queries]
        with self.tracer.span("xpath.parse"):
            self.values["xpath.parse_s"], _ = self._median_time(
                lambda: [parse_query(q) for q in queries])
        with self.tracer.span("hpdt.build"):
            self.values["hpdt.build_s"], _ = self._median_time(
                lambda: [compile_hpdt(p, cache=False) for p in parsed])
        cache = HpdtCache()
        for query in queries:
            compile_hpdt(query, cache=cache)
        with self.tracer.span("compile_cache.hit"):
            self.values["compile_cache.hit_s"], _ = self._median_time(
                lambda: [compile_hpdt(q, cache=cache) for q in queries])

    # -- the compiled tier ------------------------------------------------------

    def codegen(self) -> None:
        own = self._queries()
        on_kernel = [q for q in own
                     if getattr(repro.compile(q).engine, "kernel", None)]
        self.values["codegen.tier_frac"] = len(on_kernel) / len(own)
        targets = []        # (query, docs) the kernel timings cover
        for kind, queries, docs in self.inputs:
            lowered = [q for q in queries if q in on_kernel]
            if not lowered and kind in corpora.PROBE_QUERIES:
                lowered = [corpora.PROBE_QUERIES[kind]]
            targets.extend((q, docs) for q in lowered)

        # Explicit tag tables bypass the plan memo on the HPDT, and
        # fresh plans bypass the kernel memo on the plan, so each
        # repetition lowers and generates for real.
        hpdts = [compile_hpdt(query, cache=False) for query, _d in targets]

        def lower():
            return [compile_fastplan(h, tags=TagTable()) for h in hpdts]

        with self.tracer.span("codegen.plan"):
            self.values["codegen.plan_s"], _ = self._median_time(lower)
        gen_s = []
        for _ in range(REPS):
            plans = lower()
            start = clock()
            with self.tracer.span("codegen.kernel_gen"):
                kernels = [compile_kernel(plan)[0] for plan in plans]
            gen_s.append(clock() - start)
        self.values["codegen.kernel_gen_s"] = statistics.median(gen_s)
        work = []           # (hpdt, plan, kernel, pre-built batches)
        nbytes = 0
        for (_q, docs), hpdt, plan, kernel in zip(targets, hpdts, plans,
                                                   kernels):
            for data in docs:
                work.append((hpdt, plan, kernel,
                             list(parse_events_batched(data, plan.tags))))
                nbytes += len(data)

        def drive():
            with self.tracer.span("codegen.kernel"):
                for hpdt, plan, kernel, batches in work:
                    runtime = FastRuntime(plan, hpdt, [], kernel=kernel)
                    for batch in batches:
                        runtime.run_batch(batch)
                    runtime.finish()

        seconds, _ = self._median_time(drive)
        self.values["codegen.kernel_mb_s"] = mb(nbytes) / seconds

    # -- XSQ-F, its buffers and depth vectors -------------------------------------

    def matcher(self) -> None:
        work = [(repro.compile(q, engine="f"), list(parse_events(d)), len(d))
                for _k, queries, docs in self.inputs
                for q in queries for d in docs]
        totals = {"enqueued": 0, "emitted": 0, "peak": 0}

        def drive():
            totals.update(enqueued=0, emitted=0, peak=0)
            with self.tracer.span("matcher.feed_events"):
                for compiled, events, _n in work:
                    session = compiled.push()
                    session.feed_events(events)
                    session.finish()
                    stats = compiled.stats
                    totals["enqueued"] += stats.enqueued
                    totals["emitted"] += stats.emitted
                    totals["peak"] = max(totals["peak"],
                                         stats.peak_buffered_items)

        seconds, _ = self._median_time(drive)
        self.values["matcher.run_mb_s"] = mb(
            sum(n for _c, _e, n in work)) / seconds
        self.values["buffers.enqueued"] = totals["enqueued"]
        self.values["buffers.emitted"] = totals["emitted"]
        self.values["buffers.useful_ratio"] = (
            totals["emitted"] / totals["enqueued"]
            if totals["enqueued"] else 1.0)
        self.values["buffers.peak_items"] = totals["peak"]

    # -- multi-query dispatch, the broker and the server ---------------------------

    def _broker_pass(self, queries, docs, chunk) -> int:
        broker = SubscriptionBroker()
        for query in queries:
            broker.subscribe(query)
        results = 0
        for data in docs:
            stream = broker.open_stream()
            for start in range(0, len(data), chunk):
                results += len(stream.feed(data[start:start + chunk]))
            results += len(stream.finish())
        return results

    def broker(self) -> None:
        def drive():
            with self.tracer.span("broker.feed"):
                return sum(self._broker_pass(queries, docs, CHUNK)
                           for _k, queries, docs in self.inputs)

        seconds, results = self._median_time(drive)
        self.values["broker.feed_mb_s"] = mb(self.total_bytes) / seconds
        self.values["broker.results"] = results

    def server(self) -> None:
        """Closed-loop time through ``xsq serve`` over in-process broker
        time, on the same documents, queries and chunks."""
        import fanout

        _kind, queries, docs = self.inputs[0]
        docs = docs[:8]
        broker_s, _ = self._median_time(
            lambda: self._broker_pass(queries, docs, fanout.CHUNK))
        with self.tracer.span("server.closed_pass"):
            served_s, dropped, errors = asyncio.run(
                fanout.closed_probe(queries, docs, REPS))
        self.values["server.overhead_ratio"] = served_s / broker_s
        self.values["server.dropped"] = dropped
        self.outcome.attempted += 1
        if errors:
            self.outcome.fail("serve probe: %d error(s)" % errors)

    # -- the worker pool --------------------------------------------------------

    def pool(self) -> None:
        import bulk

        workers = bulk.workers()
        kind, queries, docs = self.inputs[0]
        query = queries if len(queries) > 1 else queries[0]
        tiny = [corpora.tiny_document(kind)]

        def bulk_run(sources, n, span):
            with self.tracer.span(span):
                return repro.run_bulk(query, sources, workers=n).results()

        self.values["pool.start_s"], _ = self._median_time(
            lambda: bulk_run(tiny, workers, "pool.start"))
        serial, serial_out = self._median_time(
            lambda: bulk_run(docs, 1, "pool.serial"))
        parallel, parallel_out = self._median_time(
            lambda: bulk_run(docs, workers, "pool.parallel"))
        self.outcome.check("run_bulk parallel vs serial", parallel_out,
                           serial_out)
        self.values["pool.serial_docs_s"] = serial
        self.values["pool.parallel_docs_s"] = parallel
        self.values["pool.speedup"] = serial / parallel

    # -- the result sink --------------------------------------------------------

    def output(self) -> None:
        values = []
        for _k, queries, docs in self.inputs:
            for query in queries:
                compiled = repro.compile(query)
                for data in docs:
                    values.extend(compiled.run(data))
        buffer = io.StringIO()
        with self.tracer.span("output.write"):
            with ResultWriter(buffer, "plain") as writer:
                for value in values:
                    writer.write(value)
        self.values["output.results"] = len(values)
        self.values["output.bytes"] = len(buffer.getvalue().encode())


def tracing_overhead(inputs: List[LayerInput], tracer) -> float:
    """Primary-API passes with a span per call over the same passes
    without spans (median of REPS each, alternating)."""
    calls = []
    for _k, queries, docs in inputs:
        compiled = repro.compile(queries if len(queries) > 1 else queries[0])
        calls.extend((compiled.run, data) for data in docs)
    on, off = [], []
    enabled = tracer.enabled
    try:
        for _ in range(REPS):
            for flag, sink in ((True, on), (False, off)):
                tracer.enabled = flag
                start = clock()
                for index, (call, data) in enumerate(calls):
                    with tracer.span("api.run", doc=index):
                        call(data)
                sink.append(clock() - start)
    finally:
        tracer.enabled = enabled
    return statistics.median(on) / statistics.median(off)


def traced_run(args, measure, tracer):
    """The ``--trace 1`` run: workload, layer suite, overhead, spans."""
    import argparse

    half = argparse.Namespace(**vars(args))
    half.seconds = args.seconds / 2
    with tracer.span("workload"):
        outcome = measure(half, tracer)
    inputs = layer_inputs(args.workload, args.seed, args.quick)
    with tracer.span("layers"):
        outcome.layers.update(LayerSuite(inputs, tracer, outcome).run())
    outcome.layers["trace.overhead_ratio"] = tracing_overhead(inputs, tracer)

    table = tracer.self_times()
    stem = os.path.join(OUT_DIR, "trace-%s-%d" % (args.workload, args.seed))
    tracer.dump(stem + ".spans.jsonl")
    with open(stem + ".self.json", "w") as fh:
        json.dump(table, fh, indent=1)
    print("# self time per span, %s (seed %d)" % (args.workload, args.seed))
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print("#   %-24s count %6d  self %9.4f s"
              % (name, row["count"], row["self_s"]))
    return outcome
